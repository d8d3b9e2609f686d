package main

import (
	"fmt"
	"html/template"
	"io"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/explain"
	"repro/internal/ledger"
	"repro/internal/perfobs"
)

// htmlConfig is one configuration's section of the HTML report: its run
// history (newest last), SVG trend sparklines, the newest explain panels,
// and the latest-vs-previous diff when there are at least two runs.
type htmlConfig struct {
	Hash    string
	Runs    []htmlRun
	Trends  []htmlTrend
	Explain *htmlExplain
	Diff    *ledger.Diff
}

// htmlExplain is the newest explained run's SVG panel set for one config:
// a stacked 3C bar, a reuse-distance bar chart and a set-pressure heat
// strip per cache side.
type htmlExplain struct {
	RunID  string
	Panels []htmlExplainPanel
}

type htmlExplainPanel struct {
	Label   string
	Summary string
	Bar     []svgRect // stacked 3C composition bar
	Reuse   []svgRect // reuse-distance histogram bars
	ReuseW  float64
	Heat    []svgRect // per-set-group miss intensity cells
	HeatW   float64
}

// svgRect is one template-rendered rectangle; Title becomes the hover
// tooltip.
type svgRect struct {
	X, Y, W, H float64
	Fill       string
	Title      string
}

const (
	explBarW  = 300.0
	explBarH  = 16.0
	reuseBarW = 16.0
	reuseMaxH = 48.0
	heatH     = 14.0
)

// buildExplainPanels turns a ledgered explain report into SVG panel data.
func buildExplainPanels(rep *explain.Report) []htmlExplainPanel {
	var out []htmlExplainPanel
	for _, s := range rep.Sides {
		comp, cap3, conf := s.ThreeC.SharePct()
		p := htmlExplainPanel{
			Label: s.Label,
			Summary: fmt.Sprintf("compulsory %.1f%% · capacity %.1f%% · conflict %.1f%% of %d misses",
				comp, cap3, conf, s.Misses),
		}
		x := 0.0
		for _, seg := range []struct {
			pct  float64
			fill string
			name string
		}{
			{comp, "#3b6ea5", "compulsory"},
			{cap3, "#d9822b", "capacity"},
			{conf, "#b00020", "conflict"},
		} {
			w := explBarW * seg.pct / 100
			if w > 0 {
				p.Bar = append(p.Bar, svgRect{X: x, W: w, H: explBarH, Fill: seg.fill,
					Title: fmt.Sprintf("%s %.1f%%", seg.name, seg.pct)})
			}
			x += w
		}
		if s.Reuse != nil {
			var maxN int64 = 1
			for _, n := range s.Reuse.Buckets {
				if n > maxN {
					maxN = n
				}
			}
			if s.Reuse.Cold > maxN {
				maxN = s.Reuse.Cold
			}
			bins := append([]int64{s.Reuse.Cold}, s.Reuse.Buckets...)
			labels := make([]string, len(bins))
			labels[0] = "cold"
			for b := range s.Reuse.Buckets {
				labels[b+1] = explain.BucketLabel(b)
			}
			for i, n := range bins {
				h := reuseMaxH * float64(n) / float64(maxN)
				p.Reuse = append(p.Reuse, svgRect{
					X: float64(i) * (reuseBarW + 2), Y: reuseMaxH - h,
					W: reuseBarW, H: h, Fill: "#3b6ea5",
					Title: fmt.Sprintf("distance %s: %d", labels[i], n),
				})
			}
			p.ReuseW = float64(len(bins)) * (reuseBarW + 2)
		}
		if len(s.HeatMisses) > 0 {
			var maxN int64 = 1
			for _, n := range s.HeatMisses {
				if n > maxN {
					maxN = n
				}
			}
			cw := explBarW / float64(len(s.HeatMisses))
			for i, n := range s.HeatMisses {
				a := float64(n) / float64(maxN)
				p.Heat = append(p.Heat, svgRect{
					X: float64(i) * cw, W: cw, H: heatH,
					Fill: fmt.Sprintf("rgba(176,0,32,%.2f)", 0.06+0.94*a),
					Title: fmt.Sprintf("sets %d-%d: %d misses",
						i*s.SetsPerCell, min((i+1)*s.SetsPerCell, s.Sets)-1, n),
				})
			}
			p.HeatW = explBarW
		}
		out = append(out, p)
	}
	return out
}

// htmlRun is one ledger record plus its trace link, when the service
// exported a Chrome trace for that run ID. The href is relative to the
// data directory, where reports are normally written.
type htmlRun struct {
	ledger.Record
	Trace string
}

type htmlTrend struct {
	Name     string
	Polyline string // SVG points attribute
	First    string
	Last     string
}

type htmlReport struct {
	Total   int
	Configs []htmlConfig
}

const trendW, trendH = 220, 36

// svgPoints maps a metric series onto the sparkline viewbox, y-flipped so
// larger values plot higher.
func svgPoints(vals []float64) string {
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	var parts []string
	for i, v := range vals {
		x := float64(trendW-8)*float64(i)/float64(max(1, len(vals)-1)) + 4
		y := float64(trendH-8)*(1-(v-lo)/span) + 4
		parts = append(parts, fmt.Sprintf("%.1f,%.1f", x, y))
	}
	return strings.Join(parts, " ")
}

// buildReport groups the ledger by configuration, newest-active config
// first, and precomputes trends and the head diff per config. traceDir,
// when non-empty, is scanned for <run-id>.trace.json files to link.
func buildReport(recs []ledger.Record, traceDir string) htmlReport {
	order := []string{}
	seen := map[string]bool{}
	for _, r := range recs {
		if !seen[r.ConfigHash] {
			seen[r.ConfigHash] = true
			order = append(order, r.ConfigHash)
		}
	}
	// Most recently active configuration first.
	sort.SliceStable(order, func(i, j int) bool {
		last := func(h string) int {
			for k := len(recs) - 1; k >= 0; k-- {
				if recs[k].ConfigHash == h {
					return k
				}
			}
			return -1
		}
		return last(order[i]) > last(order[j])
	})
	rep := htmlReport{Total: len(recs)}
	for _, hash := range order {
		hist := ledger.ByConfig(recs, hash)
		runs := make([]htmlRun, len(hist))
		for i, r := range hist {
			runs[i] = htmlRun{Record: r}
			if traceDir != "" {
				name := r.RunID + ".trace.json"
				if _, err := os.Stat(filepath.Join(traceDir, name)); err == nil {
					runs[i].Trace = path.Join(filepath.Base(traceDir), name)
				}
			}
		}
		hc := htmlConfig{Hash: hash, Runs: runs}
		for _, tm := range trendMetrics {
			_, vals, ok := metricSeries(tm.name, hist)
			if !ok || len(vals) < 2 {
				continue
			}
			hc.Trends = append(hc.Trends, htmlTrend{
				Name:     tm.name,
				Polyline: svgPoints(vals),
				First:    fmt.Sprintf(tm.format, vals[0]),
				Last:     fmt.Sprintf(tm.format, vals[len(vals)-1]),
			})
		}
		for i := len(hist) - 1; i >= 0; i-- {
			if hist[i].Explain != nil {
				hc.Explain = &htmlExplain{RunID: hist[i].RunID, Panels: buildExplainPanels(hist[i].Explain)}
				break
			}
		}
		if len(hist) >= 2 {
			d := ledger.ComputeDiff(hist[len(hist)-2], hist[len(hist)-1], hist[:len(hist)-1], perfobs.Thresholds{})
			hc.Diff = &d
		}
		rep.Configs = append(rep.Configs, hc)
	}
	return rep
}

var htmlTmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"short": shortHash,
	"utc": func(r htmlRun) string {
		return r.Time.UTC().Format("2006-01-02 15:04:05")
	},
	"pct": func(v float64) string { return fmt.Sprintf("%+.2f%%", v) },
	"num": func(v float64) string { return fmt.Sprintf("%g", v) },
}).Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>simreport</title>
<style>
  body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 64em; color: #1a1a1a; }
  h1 { font-size: 1.4em; }
  h2 { font-size: 1.1em; font-family: ui-monospace, monospace; margin-top: 2em;
       border-bottom: 1px solid #ddd; padding-bottom: .2em; }
  table { border-collapse: collapse; margin: .7em 0; }
  th, td { padding: .2em .7em; text-align: right; font-variant-numeric: tabular-nums; }
  th { border-bottom: 1px solid #aaa; font-weight: 600; }
  td:first-child, th:first-child { text-align: left; font-family: ui-monospace, monospace; }
  .trend { display: inline-block; margin-right: 2em; }
  .trend svg { background: #f6f6f6; border-radius: 3px; vertical-align: middle; }
  .trend .name { font-family: ui-monospace, monospace; font-size: .85em; color: #555; }
  .reg { color: #b00020; font-weight: 600; }
  .env { color: #777; font-size: .85em; }
  h3.exp { font-size: 1em; margin-bottom: .3em; }
  .panel { margin: .6em 0 1em; }
  .panel svg { background: #f6f6f6; border-radius: 3px; display: block; margin: .15em 0 .5em; }
  .panel .name { font-family: ui-monospace, monospace; font-size: .85em; color: #555; }
</style>
</head>
<body>
<h1>simreport — {{.Total}} ledgered run(s)</h1>
{{range .Configs}}
<h2>config {{.Hash}}</h2>
<table>
  <tr><th>time (UTC)</th><th>run</th><th>tool</th><th>cells</th><th>refs</th>
      <th>cycles</th><th>cpi</th><th>wall ms</th><th>outcome</th><th>trace</th></tr>
  {{range .Runs}}
  <tr><td>{{utc .}}</td><td>{{.RunID}}</td><td>{{.Tool}}</td>
      <td>{{.Cells.Done}}/{{.Cells.Planned}}</td><td>{{.Refs}}</td>
      <td>{{.TotalCycles}}</td><td>{{printf "%.4f" .CPI}}</td>
      <td>{{.WallMs}}</td><td>{{.Outcome}}</td>
      <td>{{if .Trace}}<a href="{{.Trace}}">trace</a>{{else}}&mdash;{{end}}</td></tr>
  {{end}}
</table>
{{with (index .Runs 0)}}<p class="env">{{.Env}}</p>{{end}}
{{if .Trends}}
<div>
  {{range .Trends}}
  <span class="trend"><span class="name">{{.Name}}</span>
    <svg width="220" height="36" viewBox="0 0 220 36">
      <polyline points="{{.Polyline}}" fill="none" stroke="#3b6ea5" stroke-width="1.5"/>
    </svg>
    <span class="name">{{.First}} &rarr; {{.Last}}</span></span>
  {{end}}
</div>
{{end}}
{{with .Explain}}
<h3 class="exp">explain — run {{.RunID}} (warm windows)</h3>
{{range .Panels}}
<div class="panel">
  <div class="name">side {{.Label}} — {{.Summary}}</div>
  <svg width="300" height="16" viewBox="0 0 300 16">
    {{range .Bar}}<rect x="{{.X}}" y="0" width="{{.W}}" height="{{.H}}" fill="{{.Fill}}"><title>{{.Title}}</title></rect>{{end}}
  </svg>
  {{if .Reuse}}
  <div class="name">reuse distance (log2 buckets, cold first)</div>
  <svg width="{{.ReuseW}}" height="48" viewBox="0 0 {{.ReuseW}} 48">
    {{range .Reuse}}<rect x="{{.X}}" y="{{.Y}}" width="{{.W}}" height="{{.H}}" fill="{{.Fill}}"><title>{{.Title}}</title></rect>{{end}}
  </svg>
  {{end}}
  {{if .Heat}}
  <div class="name">set-pressure misses (left = set 0)</div>
  <svg width="{{.HeatW}}" height="14" viewBox="0 0 {{.HeatW}} 14">
    {{range .Heat}}<rect x="{{.X}}" y="0" width="{{.W}}" height="{{.H}}" fill="{{.Fill}}"><title>{{.Title}}</title></rect>{{end}}
  </svg>
  {{end}}
</div>
{{end}}
{{end}}
{{with .Diff}}
<table>
  <tr><th>latest vs prev</th><th>old</th><th>new</th><th>delta</th></tr>
  {{range .Metrics}}
  <tr{{if .Regression}} class="reg"{{end}}>
      <td>{{.Name}}</td><td>{{num .Old}}</td><td>{{num .New}}</td><td>{{pct .Pct}}</td></tr>
  {{end}}
</table>
{{end}}
{{end}}
</body>
</html>
`))

// writeHTML renders the whole ledger as one self-contained HTML page — no
// external assets, so the file can be attached to a bug or archived as is.
// Runs with an exported Chrome trace in traceDir get a link to it
// (Perfetto-loadable; the one outward reference, and only when present).
func writeHTML(w io.Writer, recs []ledger.Record, traceDir string) error {
	return htmlTmpl.Execute(w, buildReport(recs, traceDir))
}
