package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// compare prints, per workload and end-to-end metric, both sets' medians,
// the change, the bound and a verdict, with the per-layer metrics declared
// to move that metric listed under it. It returns the number of
// regressions.
//
//	ok          b is not worse than a by more than the bound
//	regressed   b is worse than a by more than the bound
//	unresolved  the runs of a or of b spread wider than the bound, so the
//	            comparison cannot tell
func compare(w io.Writer, a, b *runSet) int {
	regressions := 0
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "a: %s seed %d, %d runs of %.0f s   b: %s seed %d, %d runs of %.0f s\n",
		a.Label, a.Seed, a.Count, a.Seconds, b.Label, b.Seed, b.Count, b.Seconds)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%s: only in a\n", name)
			continue
		}
		fmt.Fprintf(w, "%s\n", name)
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			worse := ratio(mb-ma, ma) // share by which b is worse than a
			if d.better == "higher" {
				worse = -worse
			}
			spread := max(ratio(q3a-q1a, ma), ratio(q3b-q1b, mb))
			verdict := "ok"
			switch {
			case spread > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				regressions++
			}
			fmt.Fprintf(w, "  %-22s %12.4f -> %12.4f %-7s %+7.2f%% worse  bound %4.1f%%  spread %4.1f%%  %s\n",
				d.name, ma, mb, d.unit, 100*worse, 100*d.bound, 100*spread, verdict)
			for _, l := range perLayer {
				if !moves(l, d.name, name) {
					continue
				}
				la, lb := wa.PerLayer[l.name], wb.PerLayer[l.name]
				fmt.Fprintf(w, "      %-30s %12.4f -> %12.4f %-7s %+7.2f%%\n", l.name, la, lb, l.unit, 100*ratio(lb-la, la))
			}
		}
	}
	for name := range b.Workloads {
		if a.Workloads[name] == nil {
			fmt.Fprintf(w, "%s: only in b\n", name)
		}
	}
	return regressions
}

// moves reports whether layer metric l is declared to move end-to-end
// metric e2e on workload wl.
func moves(l metricDef, e2e, wl string) bool {
	for _, m := range l.moves {
		if name, on, _ := strings.Cut(m, "@"); name == e2e && on == wl {
			return true
		}
	}
	return false
}
