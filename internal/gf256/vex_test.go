package gf256

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// vecReg matches an operand that names an SSE or AVX register.
var vecReg = regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)

// asmInstr is one instruction of an assembly file, macros expanded.
type asmInstr struct {
	line  int    // where it is written, or where its macro is used
	label bool   // a jump target, not an instruction
	text  string // the instruction, or the label's name
}

// readAsm splits an assembly file into TEXT routines of instructions and
// labels, with #define macros expanded in place, comments and directives
// dropped, and one instruction per element (a macro's body lines are joined
// by backslashes; an instruction list may also be split by semicolons).
func readAsm(t *testing.T, path string) map[string][]asmInstr {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	macros := map[string][]string{}
	routines := map[string][]asmInstr{}
	var routine, macro string // the TEXT routine, and the #define whose body continues
	for i, raw := range strings.Split(string(src), "\n") {
		line, _, _ := strings.Cut(raw, "//")
		line = strings.TrimSpace(line)
		cont := strings.HasSuffix(line, `\`)
		line = strings.TrimSpace(strings.TrimSuffix(line, `\`))
		switch {
		case macro != "":
			macros[macro] = append(macros[macro], splitInstrs(line)...)
			if !cont {
				macro = ""
			}
			continue
		case strings.HasPrefix(line, "#define"):
			f := strings.Fields(line)
			if len(f) < 2 {
				t.Fatalf("%s:%d: #define without a name", path, i+1)
			}
			macros[f[1]] = splitInstrs(strings.Join(f[2:], " "))
			if cont {
				macro = f[1]
			}
			continue
		case strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "TEXT"):
			routine = strings.TrimSpace(strings.TrimPrefix(line, "TEXT"))
			routine, _, _ = strings.Cut(routine, "(")
			routines[routine] = nil
			continue
		}
		if routine == "" {
			continue
		}
		for _, in := range splitInstrs(line) {
			if name, ok := strings.CutSuffix(in, ":"); ok && !strings.ContainsAny(name, " \t") {
				routines[routine] = append(routines[routine], asmInstr{line: i + 1, label: true, text: name})
				continue
			}
			routines[routine] = append(routines[routine], asmInstr{line: i + 1, text: in})
		}
	}
	// Expand macro uses, now that every body is complete.
	for name, body := range routines {
		var out []asmInstr
		for _, in := range body {
			if m, ok := macros[in.text]; ok && !in.label {
				for _, mi := range m {
					out = append(out, asmInstr{line: in.line, text: mi})
				}
				continue
			}
			out = append(out, in)
		}
		routines[name] = out
	}
	return routines
}

func splitInstrs(line string) []string {
	var out []string
	for _, s := range strings.Split(line, ";") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// TestKernelStaysVEXWhileYMMIsLive pins the rule DESIGN.md gives for
// kernel_amd64.s: from a routine's first instruction that names a Y register
// until VZEROUPPER, every instruction that names an X or Y register is
// VEX-encoded. A legacy-SSE instruction there (MOVQ DX, X2, say) finds the
// upper YMM halves dirty, and the CPU stalls to save or merge them — on every
// call, which on a 512-byte piece cost more than the multiply itself. Control
// flow is not followed: a label counts as reachable from anywhere above it in
// its routine, so it makes the state dirty again if a Y register was named
// earlier.
func TestKernelStaysVEXWhileYMMIsLive(t *testing.T) {
	const path = "kernel_amd64.s"
	routines := readAsm(t, path)
	checked := 0
	for name, body := range routines {
		seenY, dirty := false, false
		for _, in := range body {
			if in.label {
				dirty = seenY
				continue
			}
			f := strings.Fields(in.text)
			mnemonic, operands := strings.ToUpper(f[0]), strings.Join(f[1:], " ")
			if mnemonic == "VZEROUPPER" || mnemonic == "VZEROALL" {
				dirty = false
				continue
			}
			regs := vecReg.FindAllString(operands, -1)
			for _, r := range regs {
				if r[0] == 'Y' {
					seenY, dirty = true, true
				}
			}
			if !dirty || len(regs) == 0 {
				continue
			}
			checked++
			if !strings.HasPrefix(mnemonic, "V") {
				t.Errorf("%s:%d: %s: %q names %s while the upper YMM halves are dirty; use its VEX form (V%s) so the call pays no AVX-SSE transition",
					path, in.line, name, in.text, strings.Join(regs, ", "), mnemonic)
			}
		}
	}
	// The two MUL32 loops alone are fourteen such instructions: fewer means
	// the file was not read as intended and the rule held vacuously.
	if checked < 14 {
		t.Fatalf("checked %d vector instructions in %s, want at least the 14 of the two MUL32 loops", checked, path)
	}
}
