// Package netio dispatches netlist reading/writing between the
// supported exchange formats (.bench and structural Verilog) by file
// extension or explicit format name. All cmd/ tools go through it.
package netio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"statsat/internal/bench"
	"statsat/internal/circuit"
	"statsat/internal/verilog"
)

// Format identifies a netlist serialisation.
type Format string

// Supported formats.
const (
	Bench   Format = "bench"
	Verilog Format = "verilog"
)

// FormatForPath infers the format from a file extension (".v"/".sv" →
// Verilog, everything else → bench, matching benchmark-suite
// conventions).
func FormatForPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".v", ".sv", ".vlg":
		return Verilog
	}
	return Bench
}

// ParseFormat validates an explicit format name ("" means: defer to
// the path).
func ParseFormat(name string) (Format, error) {
	switch strings.ToLower(name) {
	case "":
		return "", nil
	case "bench":
		return Bench, nil
	case "verilog", "v":
		return Verilog, nil
	}
	return "", fmt.Errorf("netio: unknown format %q (want bench or verilog)", name)
}

// ReadFromStreaming parses a netlist from any reader in the given
// format ("" = Bench) — the one reader every entry point goes through:
// sources that never touch the filesystem, such as netlists uploaded
// to statsatd or embedded in tests, call it directly, and ReadFile and
// ReadString wrap it. Both formats' parsers declare into one
// circuit.Builder, whose packed records and linear-time build suit
// 100k-gate netlists declared in any order.
func ReadFromStreaming(r io.Reader, f Format) (*circuit.Circuit, error) {
	switch f {
	case Verilog:
		return verilog.Parse(r)
	case Bench, "":
		return bench.Parse(r)
	}
	return nil, fmt.Errorf("netio: unknown format %q", f)
}

// ReadString parses a netlist held in memory (ReadFromStreaming over a
// string).
func ReadString(src string, f Format) (*circuit.Circuit, error) {
	return ReadFromStreaming(strings.NewReader(src), f)
}

// Write serialises c to w in the given format.
func Write(w io.Writer, c *circuit.Circuit, f Format) error {
	switch f {
	case Verilog:
		return verilog.Write(w, c)
	case Bench, "":
		return bench.Write(w, c)
	}
	return fmt.Errorf("netio: unknown format %q", f)
}

// ReadFile loads a netlist, inferring the format from the path unless
// explicit is non-empty.
func ReadFile(path string, explicit Format) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	format := explicit
	if format == "" {
		format = FormatForPath(path)
	}
	c, err := ReadFromStreaming(f, format)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// WriteFile stores a netlist, inferring the format from the path
// unless explicit is non-empty.
func WriteFile(path string, c *circuit.Circuit, explicit Format) error {
	format := explicit
	if format == "" {
		format = FormatForPath(path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, c, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
