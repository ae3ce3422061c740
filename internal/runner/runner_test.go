package runner

import (
	"errors"
	"testing"
)

func TestDeriveSeedStable(t *testing.T) {
	a := DeriveSeed(7, "load/LPS(11,7)/minimal/random/0.3000")
	b := DeriveSeed(7, "load/LPS(11,7)/minimal/random/0.3000")
	c := DeriveSeed(7, "load/LPS(11,7)/minimal/random/0.5000")
	if a != b {
		t.Error("DeriveSeed not deterministic")
	}
	if a == c {
		t.Error("distinct keys collided")
	}
	if DeriveSeed(8, "x") == DeriveSeed(7, "x") {
		t.Error("base seed ignored")
	}
	if DeriveSeed(0, "") == 0 {
		t.Error("zero seed escaped (would alias option defaults)")
	}
}

func TestDo(t *testing.T) {
	ran := make([]bool, 5)
	if err := Do(3,
		func() error { ran[0] = true; return nil },
		func() error { ran[1] = true; return nil },
		func() error { ran[2] = true; return errors.New("boom2") },
		func() error { ran[3] = true; return nil },
		func() error { ran[4] = true; return errors.New("boom4") },
	); err == nil || err.Error() != "boom2" {
		t.Errorf("want first error by task order, got %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("task %d skipped", i)
		}
	}
}
