package quality

import (
	"math"
	"strings"
	"testing"
)

func TestCheckUpper(t *testing.T) {
	c := CheckUpper("rounds", 10, 40)
	if !c.OK || c.Headroom != 4 {
		t.Errorf("CheckUpper(10,40) = %+v", c)
	}
	if c := CheckUpper("rounds", 41, 40); c.OK {
		t.Errorf("CheckUpper(41,40) passed: %+v", c)
	}
	if c := CheckUpper("rounds", 0, 40); !math.IsInf(c.Headroom, 1) {
		t.Errorf("zero actual should give +Inf headroom, got %v", c.Headroom)
	}
}

func TestCheckEqual(t *testing.T) {
	if c := CheckEqual("rounds = 2q+1", 21, 21); !c.OK || c.Headroom != 1 {
		t.Errorf("CheckEqual exact = %+v", c)
	}
	if c := CheckEqual("rounds = 2q+1", 20, 21); c.OK {
		t.Errorf("CheckEqual mismatch passed: %+v", c)
	}
}

func TestCheckHolds(t *testing.T) {
	if c := CheckHolds("validator", true); !c.OK {
		t.Errorf("CheckHolds(true) = %+v", c)
	}
	if c := CheckHolds("validator", false); c.OK {
		t.Errorf("CheckHolds(false) = %+v", c)
	}
}

func TestFailuresAndFormatChecks(t *testing.T) {
	checks := []GuaranteeCheck{
		CheckUpper("a", 10, 40),
		CheckUpper("b", 50, 40),
		CheckUpper("c", 20, 40),
	}
	fails := Failures(checks)
	if len(fails) != 1 || !strings.Contains(fails[0], "b") {
		t.Errorf("Failures = %v", fails)
	}
	if out := FormatChecks(checks); !strings.Contains(out, "FAIL: b") {
		t.Errorf("FormatChecks missing failure line:\n%s", out)
	}
}
