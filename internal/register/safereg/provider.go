package safereg

import "spacebounds/internal/register"

func init() {
	register.RegisterProvider("abd", func(cfg register.Config) (register.Register, error) {
		return NewABD(cfg)
	})
	register.RegisterProvider("safereg", func(cfg register.Config) (register.Register, error) {
		return New(cfg)
	})
}
