package quality

import (
	"fmt"
	"math"
	"strings"
)

// GuaranteeCheck records one theorem-guarantee assertion together with
// the constant-factor headroom the implementation actually had. The
// paper's claims are asymptotic; conformance tests pin each one to a
// concrete bound with an explicit constant and record Bound/Actual so
// that a regression eating into the margin is visible before it
// becomes a failure.
type GuaranteeCheck struct {
	// Name identifies the guarantee, e.g. "rounds = 2q+1 (Lemma 3.3)".
	Name string
	// Actual is the measured value, Bound the asserted limit.
	Actual, Bound float64
	// OK reports whether the assertion held.
	OK bool
	// Headroom is Bound/Actual (+Inf when Actual is 0). For equality
	// checks it is 1 when the check passes.
	Headroom float64
}

func headroom(actual, bound float64) float64 {
	if actual == 0 {
		return math.Inf(1)
	}
	return bound / actual
}

// CheckUpper asserts actual ≤ bound.
func CheckUpper(name string, actual, bound float64) GuaranteeCheck {
	return GuaranteeCheck{
		Name:     name,
		Actual:   actual,
		Bound:    bound,
		OK:       actual <= bound,
		Headroom: headroom(actual, bound),
	}
}

// CheckEqual asserts actual == want exactly (round counts that the
// implementation pins to a closed form, not just an O(·) bound).
func CheckEqual(name string, actual, want float64) GuaranteeCheck {
	return GuaranteeCheck{
		Name:     name,
		Actual:   actual,
		Bound:    want,
		OK:       actual == want,
		Headroom: headroom(actual, want),
	}
}

// CheckHolds records a boolean property (typically "validator
// passed"); Actual is 1 when it holds.
func CheckHolds(name string, ok bool) GuaranteeCheck {
	actual := 0.0
	if ok {
		actual = 1
	}
	return GuaranteeCheck{Name: name, Actual: actual, Bound: 1, OK: ok, Headroom: 1}
}

// String renders the check as a one-line report.
func (c GuaranteeCheck) String() string {
	status := "ok"
	if !c.OK {
		status = "FAIL"
	}
	h := ""
	if !math.IsInf(c.Headroom, 1) && c.Bound != 1 {
		h = fmt.Sprintf(", headroom %.2fx", c.Headroom)
	}
	return fmt.Sprintf("%s: %s (actual %.6g, bound %.6g%s)", status, c.Name, c.Actual, c.Bound, h)
}

// Failures returns the failing checks' reports, empty when all hold.
func Failures(checks []GuaranteeCheck) []string {
	var out []string
	for _, c := range checks {
		if !c.OK {
			out = append(out, c.String())
		}
	}
	return out
}

// FormatChecks renders all checks, one per line.
func FormatChecks(checks []GuaranteeCheck) string {
	var b strings.Builder
	for _, c := range checks {
		b.WriteString("  " + c.String() + "\n")
	}
	return b.String()
}
