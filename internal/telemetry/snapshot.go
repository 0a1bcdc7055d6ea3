package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time copy of a registry, deterministically
// ordered: families sorted by name, series by label values. It is the
// single source both renderings — Prometheus text and expvar-style
// JSON — and every -stats block derive from.
type Snapshot struct {
	Families []Family
}

// Family is one metric name's snapshot.
type Family struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []string
	Series []Series
}

// Series is one label combination's value. For counters and gauges
// Value holds the reading; for histograms Hist does.
type Series struct {
	Values []string
	Value  float64
	Hist   *HistValue
}

// HistValue is a histogram series' snapshot. Counts are per-bucket
// (non-cumulative), aligned with Bounds plus one final overflow (+Inf)
// bucket; the renderings cumulate them where their format requires.
type HistValue struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// formatFloat renders a value the way both expositions spell numbers.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders {k="v",...} (empty string for an unlabeled series).
func labelPairs(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (# HELP / # TYPE headers, histogram _bucket series
// with cumulative le counts plus _sum and _count).
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range s.Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, sr := range f.Series {
			if f.Kind != KindHistogram {
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, labelPairs(f.Labels, sr.Values), formatFloat(sr.Value))
				continue
			}
			h := sr.Hist
			cum := uint64(0)
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name,
					labelPairs(append(f.Labels, "le"), append(sr.Values, formatFloat(bound))), cum)
			}
			cum += h.Counts[len(h.Bounds)]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.Name,
				labelPairs(append(f.Labels, "le"), append(sr.Values, "+Inf")), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.Name, labelPairs(f.Labels, sr.Values), formatFloat(h.Sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.Name, labelPairs(f.Labels, sr.Values), h.Count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// seriesKey renders a labeled series' JSON object key: "k=v,k2=v2".
func seriesKey(labels, values []string) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l + "=" + values[i]
	}
	return strings.Join(parts, ",")
}

// WriteJSON renders the snapshot as one expvar-style JSON object with
// deterministic key order: unlabeled counters and gauges are plain
// numbers, labeled families are objects keyed "k=v,...", histograms are
// {"count","sum","buckets"} objects with cumulative bucket counts keyed
// by upper bound.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{")
	for fi, f := range s.Families {
		if fi > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		b.WriteString(jsonString(f.Name))
		b.WriteString(": ")
		if len(f.Labels) == 0 {
			writeJSONValue(&b, f, f.Series[0], "  ")
			continue
		}
		b.WriteString("{")
		for si, sr := range f.Series {
			if si > 0 {
				b.WriteString(",")
			}
			b.WriteString("\n    ")
			b.WriteString(jsonString(seriesKey(f.Labels, sr.Values)))
			b.WriteString(": ")
			writeJSONValue(&b, f, sr, "    ")
		}
		b.WriteString("\n  }")
	}
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeJSONValue(b *strings.Builder, f Family, sr Series, indent string) {
	if f.Kind != KindHistogram {
		b.WriteString(formatFloat(sr.Value))
		return
	}
	h := sr.Hist
	fmt.Fprintf(b, `{"count": %d, "sum": %s, "buckets": {`, h.Count, formatFloat(h.Sum))
	cum := uint64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s: %d", jsonString(formatFloat(bound)), cum)
	}
	cum += h.Counts[len(h.Bounds)]
	if len(h.Bounds) > 0 {
		b.WriteString(", ")
	}
	fmt.Fprintf(b, `"+Inf": %d}}`, cum)
}
