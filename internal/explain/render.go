package explain

import (
	"fmt"
	"io"

	"repro/internal/textplot"
)

// RenderText writes the report's 3C classification table, one row per
// cache side. Every percentage is zero-safe — a run with no references or
// no misses renders 0.0%, never NaN.
func RenderText(w io.Writer, rep *Report) error {
	if rep == nil || len(rep.Sides) == 0 {
		_, err := fmt.Fprintln(w, "explain: no report recorded")
		return err
	}
	tab := textplot.NewTable("3C miss classification (compulsory+capacity+conflict == misses, by construction)",
		"side", "refs", "misses", "miss%", "compulsory", "capacity", "conflict", "comp%", "cap%", "conf%")
	for _, s := range rep.Sides {
		comp, cap3, conf := s.ThreeC.SharePct()
		tab.Row(s.Label, s.Refs, s.Misses, 100*s.MissRatio(),
			s.ThreeC.Compulsory, s.ThreeC.Capacity, s.ThreeC.Conflict,
			comp, cap3, conf)
	}
	return tab.Render(w)
}
