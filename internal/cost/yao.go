// Package cost implements the analytic cost models of Section 3 of the
// paper: Yao's page-access estimator, the single-record and record-set
// retrieval/maintenance functions CRL, CML, CRT and CMT, B+-tree geometry,
// and the per-organization query and maintenance costs for the MX, MIX and
// NIX index organizations, including the configuration boundary cost of
// Definition 4.2. All costs are expressed in expected page accesses.
package cost

import "math"

// yaoExactMax is the largest whole record count for which Yao multiplies
// its factors out one by one; above it the product is evaluated in closed
// form in O(1).
const yaoExactMax = 64

// yaoStirlingMin is the smallest Gamma argument for which the closed form
// uses its cancellation-free Stirling expansion; below it the product is
// small enough that plain math.Lgamma differences are accurate.
const yaoStirlingMin = 10

// Yao estimates the number of page accesses (npa) needed to retrieve t
// records out of n records uniformly distributed over m pages, using the
// formula of Yao [Comm. ACM 20(4), 1977]:
//
//	npa(t, n, m) = m * (1 - prod_{i=1}^{t} (n - n/m - i + 1) / (n - i + 1))
//
// Boundary behaviour: 0 when t or n or m is non-positive; m when t >= n
// (every page is touched); fractional t (arising from chained expected
// record counts) interpolates the final factor geometrically.
//
// Up to yaoExactMax whole factors the product is multiplied out; beyond,
// it is the Gamma-function ratio of yaoClosedForm, which agrees with the
// multiplied-out product to within 1e-9 relative.
func Yao(t, n, m float64) float64 {
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
	var prod float64
	if ti <= yaoExactMax {
		prod = yaoProduct(ti, n, perPage)
	} else {
		prod = yaoClosedForm(float64(ti), n, perPage)
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

// yaoProduct multiplies out the first k factors of Yao's product, stopping
// at zero once a numerator is non-positive or the product underflows
// 1e-300.
func yaoProduct(k int, n, perPage float64) float64 {
	prod := 1.0
	for i := 1; i <= k; i++ {
		num := n - perPage - float64(i) + 1
		den := n - float64(i) + 1
		if num <= 0 || den <= 0 {
			return 0
		}
		prod *= num / den
		if prod < 1e-300 {
			return 0
		}
	}
	return prod
}

// yaoClosedForm evaluates the first k factors of Yao's product, with the
// same zero rules as yaoProduct, as a ratio of Gamma functions: with
// B = n+1 and A = B - p,
//
//	prod_{i=1}^{k} (A-i)/(B-i) = Γ(A)Γ(B-k) / (Γ(A-k)Γ(B)).
//
// The four log-Gamma terms are each ~1e7 at n ~ 1e6 while their sum is
// near 0 when the product is near 1, so a plain math.Lgamma difference
// loses ~1e-4 relative there. Stirling's series, rearranged so that the
// large terms cancel analytically, keeps the sum at full precision:
//
//	L = p·log1p(-k/B) + (A-½)·log1p(-p/B) - (A-k-½)·log1p(-p/(B-k))
//	    + s(A) - s(A-k) - s(B) + s(B-k)
//
// where s is the series tail 1/(12z) - 1/(360z³) + ... . Since the factors
// decrease, A-k is the smallest argument; when it is small the product is
// far from 1 and the Lgamma difference is accurate enough.
func yaoClosedForm(k, n, p float64) float64 {
	b := n + 1
	a := b - p
	if a-k <= 0 { // a numerator (the last one) is non-positive
		return 0
	}
	var l float64
	if a-k < yaoStirlingMin {
		l = lgamma(a) - lgamma(a-k) - lgamma(b) + lgamma(b-k)
	} else {
		l = p*math.Log1p(-k/b) + (a-0.5)*math.Log1p(-p/b) - (a-k-0.5)*math.Log1p(-p/(b-k)) +
			stirlingTail(a) - stirlingTail(a-k) - stirlingTail(b) + stirlingTail(b-k)
	}
	prod := math.Exp(l)
	if prod < 1e-300 {
		return 0
	}
	return prod
}

// lgamma is math.Lgamma for the positive arguments of yaoClosedForm.
func lgamma(z float64) float64 {
	v, _ := math.Lgamma(z)
	return v
}

// stirlingTail is the tail of Stirling's series for ln Γ(z), i.e.
// ln Γ(z) - ((z-½)ln z - z + ½ln 2π). Four terms leave an error below
// 1e-12 for z >= yaoStirlingMin.
func stirlingTail(z float64) float64 {
	r := 1 / z
	r2 := r * r
	return r * (1.0/12 - r2*(1.0/360-r2*(1.0/1260-r2*(1.0/1680))))
}
