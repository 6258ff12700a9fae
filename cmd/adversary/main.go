// Command adversary runs the Theorem 1 scheduling adversary Ad against a
// chosen register emulation and reports the storage it pins the system at,
// compared with the analytic Ω(min(f, c)·D) target.
//
// Usage:
//
//	adversary -algo ecreg -f 8 -k 8 -c 12 -size 512
//	adversary -algo adaptive -f 8 -k 8 -c 1,4,8,12
//	adversary -algo safe -f 8 -k 8 -c 16
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"spacebounds/internal/adversary"
	"spacebounds/internal/register"
	"spacebounds/internal/register/adaptive"
	"spacebounds/internal/register/ecreg"
	"spacebounds/internal/register/safereg"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "adversary: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, attacks the chosen register once per concurrency level and
// prints one result line per level to out (flag usage goes there too).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adversary", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		algo = fs.String("algo", "ecreg", "algorithm to attack: ecreg | adaptive | safe")
		f    = fs.Int("f", 8, "number of base-object failures tolerated")
		k    = fs.Int("k", 8, "erasure-code decode threshold (n = 2f+k)")
		size = fs.Int("size", 512, "value size in bytes (D = 8*size bits)")
		cs   = fs.String("c", "1,4,8,12", "comma-separated concurrency levels")
		ell  = fs.Int("ell", 0, "adversary parameter ℓ in bits (0 = D/2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	newReg := func() (register.Register, error) {
		cfg := register.Config{F: *f, K: *k, DataLen: *size}
		switch *algo {
		case "ecreg":
			return ecreg.New(cfg)
		case "adaptive":
			return adaptive.New(cfg)
		case "safe":
			return safereg.New(cfg)
		default:
			return nil, fmt.Errorf("unknown algorithm %q (want ecreg, adaptive, or safe)", *algo)
		}
	}
	for _, field := range strings.Split(*cs, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("bad concurrency level %q: %w", field, err)
		}
		reg, err := newReg()
		if err != nil {
			return err
		}
		res, err := adversary.Run(reg, c, *ell)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
	}
	return nil
}
