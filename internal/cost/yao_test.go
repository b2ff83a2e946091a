package cost

import (
	"math"
	"testing"
)

// refYao is Yao as a plain product loop of floor(t) factors: the
// definition the closed form must reproduce, kept as the reference.
func refYao(t, n, m float64) float64 {
	if t <= 0 || n <= 0 || m <= 0 {
		return 0
	}
	if m > n {
		m = n // cannot spread n records over more than n non-empty pages
	}
	if t >= n {
		return m
	}
	perPage := n / m
	// prod over i=1..t of (n - perPage - i + 1)/(n - i + 1); fractional t
	// interpolates the last factor geometrically so that chained estimates
	// (t fed from a lower level's npa) vary continuously.
	ti := int(math.Floor(t))
	frac := t - float64(ti)
	prod := 1.0
	for i := 1; i <= ti; i++ {
		num := n - perPage - float64(i) + 1
		den := n - float64(i) + 1
		if num <= 0 || den <= 0 {
			prod = 0
			break
		}
		prod *= num / den
		if prod < 1e-300 {
			prod = 0
			break
		}
	}
	if frac > 0 && prod > 0 {
		num := n - perPage - float64(ti+1) + 1
		den := n - float64(ti+1) + 1
		if num <= 0 || den <= 0 {
			prod = 0
		} else {
			prod *= math.Pow(num/den, frac)
		}
	}
	return m * (1 - prod)
}

// yaoTolerance is the accepted relative error of Yao against refYao
// (absolute where the reference is 0).
const yaoTolerance = 1e-9

// yaoMismatch reports how far Yao(t, n, m) is from the reference, and
// whether that is beyond yaoTolerance.
func yaoMismatch(t, n, m float64) (got, want float64, bad bool) {
	got, want = Yao(t, n, m), refYao(t, n, m)
	diff := math.Abs(got - want)
	if want != 0 {
		diff /= math.Abs(want)
	}
	return got, want, !(diff <= yaoTolerance)
}

func TestYaoMatchesProduct(t *testing.T) {
	const k = yaoExactMax
	for _, tc := range []struct {
		name    string
		t, n, m float64
	}{
		{"fractional t below the cutoff", 10.37, 5000, 50},
		{"fractional t above the cutoff", 1234.56, 50000, 500},
		{"at the cutoff", k, 20000, 200},
		{"cutoff plus one", k + 1, 20000, 200},
		{"cutoff plus a fraction", k + 0.5, 20000, 200},
		{"p≈1, n≈2e6", 1000, 2e6, 2e6 - 1},
		{"p=1, n≈2e6", 70000, 2e6, 2e6},
		{"p≈1, n≈2e6, t near n", 1.9e6, 2e6, 1.99e6},
		{"large p, product near 1", 100, 2e6, 1000},
		{"fractional n and m", 777.25, 12345.5, 432.1},
		{"last numerator 1", 1000 - 10, 1000, 100},
		{"t → n-p+1: zero product", 1000 - 10 + 1, 1000, 100},
		{"zero product, fractional t", 1000 - 10 + 1.5, 1000, 100},
		{"fractional factor reaches zero", 1000 - 10 + 0.5, 1000, 100},
		{"A-k just below the Stirling range", 1000 - 10 - 8, 1000, 100},
		{"A-k just inside the Stirling range", 1000 - 10 - 11, 1000, 100},
		{"underflow to 0", 5000, 10000, 10},
		{"near underflow", 700, 1e5, 100},
		{"m>n clamp", 300, 400, 1000},
		{"m>n clamp, fractional", 80.5, 100, 1e6},
		{"t>=n", 5e5, 5e5, 100},
	} {
		got, want, bad := yaoMismatch(tc.t, tc.n, tc.m)
		if bad {
			t.Errorf("%s: Yao(%g, %g, %g) = %.17g, product %.17g", tc.name, tc.t, tc.n, tc.m, got, want)
		}
	}
}

// FuzzYao cross-checks Yao against the product loop over n up to 2e6
// with fractional t, n and m, on both sides of yaoExactMax.
func FuzzYao(f *testing.F) {
	f.Add(uint32(65), uint32(20000), uint32(200), uint16(0))
	f.Add(uint32(64), uint32(20000), uint32(200), uint16(30000))
	f.Add(uint32(1000), uint32(2e6), uint32(2e6-1), uint16(0))
	f.Add(uint32(991), uint32(1000), uint32(100), uint16(0))
	f.Add(uint32(5000), uint32(10000), uint32(10), uint16(100))
	f.Add(uint32(300), uint32(400), uint32(1000), uint16(65535))
	f.Fuzz(func(t *testing.T, tr, nr, mr uint32, fr uint16) {
		frac := float64(fr) / 65536
		n := float64(nr%2_000_000) + 1 + frac
		m := float64(mr%uint32(2*n)) + 1 + frac/2
		tt := float64(tr%uint32(n+2)) + frac
		if got, want, bad := yaoMismatch(tt, n, m); bad {
			t.Fatalf("Yao(%v, %v, %v) = %.17g, product %.17g", tt, n, m, got, want)
		}
	})
}
