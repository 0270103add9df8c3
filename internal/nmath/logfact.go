package nmath

// LogFact caches ln(n!) so that log-binomials inside the congestion
// models' per-cell loops cost three table lookups instead of three
// Lgamma evaluations. The zero value is ready to use.
//
// Growing the table with Ensure is not safe concurrently with any
// other method. Once grown, the table is read-only: any number of
// goroutines may call Ensure (with covered arguments) and LogChoose
// concurrently.
type LogFact struct {
	tab []float64 // tab[n] = ln(n!)
}

// Ensure grows the table to cover ln(n!).
func (lf *LogFact) Ensure(n int) {
	if n < len(lf.tab) {
		return
	}
	if len(lf.tab) == 0 {
		lf.tab = append(lf.tab, 0) // ln(0!) = 0
	}
	for i := len(lf.tab); i <= n; i++ {
		lf.tab = append(lf.tab, lf.tab[i-1]+lnInt(i))
	}
}

// LogChoose returns ln C(n, k), or -Inf when the coefficient is zero.
// The caller must have called Ensure(n) first.
func (lf *LogFact) LogChoose(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		return negInf
	}
	return lf.tab[n] - lf.tab[k] - lf.tab[n-k]
}
