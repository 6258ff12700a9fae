module spacebounds/bench

go 1.24

require spacebounds v0.0.0

replace spacebounds => ../
