package meta

import (
	"errors"
	"testing"
)

func TestKeyString(t *testing.T) {
	k := Key{Block: "reg", View: "verilog", Version: 4}
	if got, want := k.String(), "reg,verilog,4"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestParseKey(t *testing.T) {
	tests := []struct {
		in      string
		want    Key
		wantErr bool
	}{
		{"reg,verilog,4", Key{"reg", "verilog", 4}, false},
		{"cpu,SCHEMA,1", Key{"cpu", "SCHEMA", 1}, false},
		{" alu , GDSII , 5 ", Key{"alu", "GDSII", 5}, false},
		{"reg,verilog", Key{}, true},
		{"reg,verilog,4,extra", Key{}, true},
		{"reg,verilog,x", Key{}, true},
		{"reg,verilog,0", Key{}, true},
		{"reg,verilog,-1", Key{}, true},
		{",verilog,1", Key{}, true},
		{"reg,,1", Key{}, true},
		{"", Key{}, true},
	}
	for _, tt := range tests {
		got, err := ParseKey(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseKey(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseKey(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	keys := []Key{
		{"cpu", "HDL_model", 1},
		{"REG", "schematic", 2},
		{"alu", "GDSII", 6},
		{"\u2028cpu\u00a0", "\vview\u2029", 7}, // what ValidateName lets through
	}
	for _, k := range keys {
		got, err := ParseKey(k.String())
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %v", k, got)
		}
	}
}

func TestKeyValidate(t *testing.T) {
	bad := []Key{
		{},
		{Block: "a", View: "b", Version: 0},
		{Block: "a b", View: "c", Version: 1},
		{Block: "a", View: "c,d", Version: 1},
		{Block: "a", View: "$v", Version: 1},
		{Block: "a#", View: "v", Version: 1},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", k)
		}
	}
	good := Key{Block: "cpu", View: "HDL_model", Version: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v, want nil", good, err)
	}
}

func TestKeyIsZeroAndBV(t *testing.T) {
	var z Key
	if !z.IsZero() {
		t.Error("zero key IsZero() = false")
	}
	k := Key{Block: "cpu", View: "netlist", Version: 2}
	if k.IsZero() {
		t.Error("non-zero key IsZero() = true")
	}
	if bv := k.BV(); bv != (BlockView{Block: "cpu", View: "netlist"}) {
		t.Errorf("BV() = %+v", bv)
	}
}

func TestValidateNameErrors(t *testing.T) {
	if err := ValidateName(""); !errors.Is(err, ErrBadName) {
		t.Errorf("ValidateName(\"\") = %v, want ErrBadName", err)
	}
	if err := ValidateName("ok_name-1.2"); err != nil {
		t.Errorf("ValidateName(ok_name-1.2) = %v", err)
	}
}
