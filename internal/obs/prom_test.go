package obs

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// A strict Prometheus text exposition-format parser, used to round-trip
// WritePrometheus output. It enforces the rules a real scraper relies
// on:
//
//   - every sample belongs to the most recently declared TYPE family
//     (base name equal to the family, or family_{bucket,sum,count} for
//     histograms);
//   - a family is declared exactly once (no interleaving);
//   - metric and label names match the format's character set;
//   - label values use only the format's escapes (\\, \", \n);
//   - histogram buckets come in strictly ascending `le` order, are
//     cumulative, end with +Inf, and +Inf equals the _count series;
//   - every value parses as a finite float (or +Inf for the bucket
//     bound only).
// ---------------------------------------------------------------------------

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

type parsedFamily struct {
	name    string
	typ     string
	samples []promSeries
}

// parseLabels parses `k="v",...}` (the text after '{') and returns the
// labels plus the remainder after the closing brace.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("missing '=' in label block near %q", s)
		}
		key := s[:eq]
		if !promLabelRe.MatchString(key) {
			return nil, "", fmt.Errorf("bad label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("label %s: unterminated value", key)
			}
			c := s[0]
			if c == '"' {
				s = s[1:]
				break
			}
			if c == '\\' {
				if len(s) < 2 {
					return nil, "", fmt.Errorf("label %s: dangling escape", key)
				}
				switch s[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: invalid escape \\%c", key, s[1])
				}
				s = s[2:]
				continue
			}
			if c == '\n' {
				return nil, "", fmt.Errorf("label %s: raw newline in value", key)
			}
			val.WriteByte(c)
			s = s[1:]
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", key)
		}
		labels[key] = val.String()
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("expected ',' or '}' near %q", s)
	}
}

// memberOf reports whether series name n belongs to family f of type t.
func memberOf(n, f, t string) bool {
	if t == "histogram" {
		return n == f+"_bucket" || n == f+"_sum" || n == f+"_count"
	}
	return n == f
}

// parseExposition parses and validates a full exposition payload.
func parseExposition(text string) ([]parsedFamily, error) {
	var fams []parsedFamily
	declared := map[string]bool{}
	cur := -1 // index into fams of the open family
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "HELP" {
				continue
			}
			if len(fields) != 4 || fields[1] != "TYPE" {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			name, typ := fields[2], fields[3]
			if !promNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad family name %q", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: bad family type %q", lineNo, typ)
			}
			if declared[name] {
				return nil, fmt.Errorf("line %d: family %s declared twice (interleaved families?)", lineNo, name)
			}
			declared[name] = true
			fams = append(fams, parsedFamily{name: name, typ: typ})
			cur = len(fams) - 1
			continue
		}
		// Sample line: name[{labels}] value
		i := strings.IndexAny(line, "{ ")
		if i < 0 {
			return nil, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		name := line[:i]
		if !promNameRe.MatchString(name) {
			return nil, fmt.Errorf("line %d: bad metric name %q", lineNo, name)
		}
		rest := line[i:]
		labels := map[string]string{}
		if strings.HasPrefix(rest, "{") {
			var err error
			labels, rest, err = parseLabels(rest[1:])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		rest = strings.TrimSpace(rest)
		// The value is the first field; an optional timestamp may follow.
		valStr := rest
		if j := strings.IndexByte(rest, ' '); j >= 0 {
			valStr = rest[:j]
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, valStr, err)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("line %d: non-finite sample value %q", lineNo, valStr)
		}
		if cur < 0 || !memberOf(name, fams[cur].name, fams[cur].typ) {
			return nil, fmt.Errorf("line %d: sample %s outside its family's TYPE block", lineNo, name)
		}
		fams[cur].samples = append(fams[cur].samples, promSeries{name: name, labels: labels, value: val})
	}
	for _, f := range fams {
		if f.typ != "histogram" {
			continue
		}
		if err := checkHistogram(f); err != nil {
			return nil, fmt.Errorf("family %s: %v", f.name, err)
		}
	}
	return fams, nil
}

// checkHistogram enforces the histogram-specific rules.
func checkHistogram(f parsedFamily) error {
	prevLe := math.Inf(-1)
	prevCum := -1.0
	var lastLe float64
	var lastCum float64
	buckets := 0
	var sum, count *float64
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			leStr, ok := s.labels["le"]
			if !ok {
				return fmt.Errorf("bucket without le label")
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				return fmt.Errorf("bad le %q: %v", leStr, err)
			}
			if le <= prevLe {
				return fmt.Errorf("bucket le %q not in ascending order (previous %g)", leStr, prevLe)
			}
			if s.value < prevCum {
				return fmt.Errorf("bucket le %q not cumulative (%g after %g)", leStr, s.value, prevCum)
			}
			prevLe, prevCum = le, s.value
			lastLe, lastCum = le, s.value
			buckets++
		case f.name + "_sum":
			v := s.value
			sum = &v
		case f.name + "_count":
			v := s.value
			count = &v
		}
	}
	if buckets == 0 {
		return fmt.Errorf("no buckets")
	}
	if !math.IsInf(lastLe, 1) {
		return fmt.Errorf("last bucket le is %g, want +Inf", lastLe)
	}
	if sum == nil || count == nil {
		return fmt.Errorf("missing _sum or _count")
	}
	if lastCum != *count {
		return fmt.Errorf("+Inf bucket %g != count %g", lastCum, *count)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Regression tests
// ---------------------------------------------------------------------------

// TestPrometheusBucketOrder pins the histogram bucket ordering bug:
// the flat lexical sort put `le="+Inf"` first ('+' < digits) and
// `le="10"` before `le="9"`. Buckets must come in ascending bound
// order with +Inf last.
func TestPrometheusBucketOrder(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("aceso_test_depth", 0.5, 2, 9, 10)
	for _, v := range []float64{0.1, 1, 5, 9.5, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	var les []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "aceso_test_depth_bucket{") {
			start := strings.Index(line, `le="`) + len(`le="`)
			end := strings.Index(line[start:], `"`) + start
			les = append(les, line[start:end])
		}
	}
	want := []string{"0.5", "2", "9", "10", "+Inf"}
	if len(les) != len(want) {
		t.Fatalf("got %d buckets %v, want %v", len(les), les, want)
	}
	for i := range want {
		if les[i] != want[i] {
			t.Fatalf("bucket order %v, want %v (le=%q at %d)", les, want, les[i], i)
		}
	}
	if _, err := parseExposition(text); err != nil {
		t.Fatalf("strict parse: %v\n%s", err, text)
	}
}

// TestPrometheusStrictRoundTrip builds a registry that exercises every
// historical exposition bug at once — a labeled family whose base name
// is a strict prefix of another metric (interleaving under lexical
// sort), histograms (mis-typed as counters), label values
// needing escaping — and round-trips the output through the strict
// parser.
func TestPrometheusStrictRoundTrip(t *testing.T) {
	r := NewRegistry()
	// `aceso_x` (labeled) vs `aceso_x_extra`: '{' (0x7b) sorts after
	// '_' (0x5f), so the lexical order was aceso_x, aceso_x_extra,
	// aceso_x{...} — family aceso_x interleaved around aceso_x_extra.
	r.Counter(`aceso_x{primitive="inc-dp"}`).Add(3)
	r.Counter(`aceso_x{primitive="dec-pp"}`).Add(4)
	r.Counter("aceso_x_extra").Add(7)
	r.Counter(CandidatesEstimatedTotal).Add(41)
	r.Gauge(ServeInflight).Set(2)
	r.Histogram(IterationSeconds, SecondsBuckets...).Observe(0.25)
	h := r.Histogram(MultiHopDepth, 1, 2, 4, 8)
	h.Observe(1)
	h.Observe(3)
	h.Observe(99)
	// Label values with every escape-worthy byte.
	r.Counter(Labeled("aceso_escape_total", "kind", "quote\"backslash\\newline\n")).Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := parseExposition(buf.String())
	if err != nil {
		t.Fatalf("strict parse: %v\n%s", err, buf.String())
	}

	byName := map[string]parsedFamily{}
	for _, f := range fams {
		byName[f.name] = f
	}
	if f := byName["aceso_x"]; f.typ != "counter" || len(f.samples) != 2 {
		t.Errorf("aceso_x family = %+v, want 2 counter samples", f)
	}
	if f := byName["aceso_x_extra"]; len(f.samples) != 1 || f.samples[0].value != 7 {
		t.Errorf("aceso_x_extra family = %+v", f)
	}
	if f := byName[MultiHopDepth]; f.typ != "histogram" {
		t.Errorf("%s typed %q, want histogram", MultiHopDepth, f.typ)
	}
	if f := byName[ServeInflight]; f.typ != "gauge" || f.samples[0].value != 2 {
		t.Errorf("%s = %+v, want gauge 2", ServeInflight, f)
	}
	if f := byName[IterationSeconds]; f.typ != "histogram" || len(f.samples) != len(SecondsBuckets)+3 {
		t.Errorf("%s family = %+v, want a histogram of %d buckets, +Inf, _sum and _count", IterationSeconds, f, len(SecondsBuckets))
	} else if last := f.samples[len(f.samples)-2]; last.value != 0.25 {
		t.Errorf("%s_sum = %v, want 0.25", IterationSeconds, last.value)
	}
	esc := byName["aceso_escape_total"]
	if len(esc.samples) != 1 {
		t.Fatalf("escape family = %+v", esc)
	}
	if got := esc.samples[0].labels["kind"]; got != "quote\"backslash\\newline\n" {
		t.Errorf("escaped label round-tripped to %q", got)
	}
}

// TestPrometheusParserCatchesViolations makes sure the strict parser
// would actually have caught the historical output.
func TestPrometheusParserCatchesViolations(t *testing.T) {
	bad := []struct{ name, text string }{
		{"inf bucket first", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_bucket{le=\"1\"} 1\nh_sum 4\nh_count 3\n"},
		{"lexical le order", "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"9\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 4\nh_count 3\n"},
		{"interleaved families", "# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# TYPE a counter\na{k=\"v\"} 1\n"},
		{"sample outside family", "# TYPE a counter\nb 1\n"},
		{"histogram typed counter", "# TYPE h counter\nh_bucket{le=\"+Inf\"} 1\n"},
		{"raw backslash escape", "# TYPE a counter\na{k=\"x\\q\"} 1\n"},
		{"missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n"},
	}
	for _, c := range bad {
		if _, err := parseExposition(c.text); err == nil {
			t.Errorf("%s: strict parser accepted invalid payload", c.name)
		}
	}
}

// TestBoundedJSONLTracerCap pins the daemon-mode memory cap: a bounded
// tracer retains at most its capacity of the most recent events and
// counts what it dropped; the batch tracer stays unbounded.
func TestBoundedJSONLTracerCap(t *testing.T) {
	const capacity = 4
	tr := NewBoundedJSONLTracer(capacity)
	for i := 1; i <= 10; i++ {
		tr.OnIteration(IterationEvent{StageCount: 1, Iter: i})
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("retained %d events, want %d", len(evs), capacity)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	for i, ev := range evs {
		if want := 7 + i; ev.Iter != want {
			t.Errorf("event %d has Iter %d, want %d (most recent window)", i, ev.Iter, want)
		}
	}
	// Batch mode unaffected.
	b := NewJSONLTracer()
	for i := 1; i <= 10; i++ {
		b.OnIteration(IterationEvent{StageCount: 1, Iter: i})
	}
	if len(b.Events()) != 10 || b.Dropped() != 0 {
		t.Errorf("batch tracer dropped events: len %d dropped %d", len(b.Events()), b.Dropped())
	}
}
