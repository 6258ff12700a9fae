package gf256

// EachKernel lets the package's external tests run on both kernels.
var EachKernel = eachKernel
