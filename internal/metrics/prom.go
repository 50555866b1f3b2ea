package metrics

import (
	"cmp"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition, rendered by hand (no client library)
// by walking the fields Snapshot declares, so a field added to any section
// reaches /metrics/prom as it reaches /metrics. Field x of section s is the
// family bpmax_s_x, both JSON names (a nested struct's name joins the path
// with `_`); counters end in _total. A `prom:"name,gauge"` tag replaces the
// path below the section (on a section pointer, the section) and marks a
// gauge. A map is one series per key, labelled with the map's name less a
// plural s; a HistogramSnapshot is a histogram in seconds.

// promWriter accumulates exposition lines, remembering the first write
// error so the render code stays linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// family emits a family's `# HELP` and `# TYPE` lines and returns its name,
// which for a counter ends in _total.
func (p *promWriter) family(name, typ, help string) string {
	if typ == "counter" && !strings.HasSuffix(name, "_total") {
		name += "_total"
	}
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return name
}

// promValue formats sample values: bools become 0/1, numbers their %v form
// (for floats, the shortest round-trip form).
func promValue(v reflect.Value) string {
	if v.Kind() != reflect.Bool {
		return fmt.Sprint(v.Interface())
	}
	if v.Bool() {
		return "1"
	}
	return "0"
}

// WriteProm renders the snapshot in Prometheus text exposition format.
// Optional sections (engine, pool, cache, admission, faults, server,
// runtime) appear only when attached, mirroring the JSON snapshot's
// omitempty behavior.
func WriteProm(w io.Writer, s *Snapshot) error {
	p := &promWriter{w: w}
	p.walk("bpmax", "", "", reflect.ValueOf(s).Elem())
	return p.err
}

// walk renders struct v's fields: section is the family prefix (bpmax,
// bpmax_cache, ...), path the name prefix below it, and doc the dotted
// /metrics path the HELP lines cite.
func (p *promWriter) walk(section, path, doc string, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		key := jsonName(f)
		if !f.IsExported() || key == "" || key == "-" {
			continue
		}
		rename, typ, _ := strings.Cut(f.Tag.Get("prom"), ",")
		own := cmp.Or(rename, path+key)
		name, help, typ := section+"_"+own, "/metrics field "+doc+key+".", cmp.Or(typ, "counter")
		switch {
		case fv.Kind() == reflect.Pointer:
			if !fv.IsNil() {
				p.walk(name, "", doc+key+".", fv.Elem())
			}
		case f.Type == reflect.TypeOf(HistogramSnapshot{}):
			writePromHistogram(p, name, help, fv.Interface().(HistogramSnapshot))
		case fv.Kind() == reflect.Struct:
			p.walk(section, own+"_", doc+key+".", fv)
		case fv.Kind() == reflect.Map:
			p.series(name, typ, help, strings.TrimSuffix(own, "s"), fv)
		default:
			p.printf("%s %s\n", p.family(name, typ, help), promValue(fv))
		}
	}
	if ps, ok := v.Interface().(PoolStats); ok { // the one family no field holds: a derived rate
		p.printf("%s %v\n", p.family(section+"_hit_rate", "gauge", "Fold-state shell reuse rate."), ps.HitRate())
	}
}

// series renders map m as one sample per key, labelled label=key in key
// order: one family for scalar values, one per field for struct values.
func (p *promWriter) series(name, typ, help, label string, m reflect.Value) {
	keys := m.MapKeys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	et, fams := m.Type().Elem(), 1
	if et.Kind() == reflect.Struct {
		fams = et.NumField()
	}
	for j := 0; j < fams && len(keys) > 0; j++ {
		fam := name
		if et.Kind() == reflect.Struct {
			fam += "_" + jsonName(et.Field(j))
		}
		fam = p.family(fam, typ, help)
		for _, k := range keys {
			v := m.MapIndex(k)
			if et.Kind() == reflect.Struct {
				v = v.Field(j)
			}
			p.printf("%s{%s=%q} %s\n", fam, label, k.String(), promValue(v))
		}
	}
}

// jsonName is f's name in the JSON snapshot ("" or "-" when it has none).
func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// writePromHistogram renders a power-of-two nanosecond histogram as a
// Prometheus histogram in seconds, with cumulative buckets and the
// mandatory +Inf bucket.
func writePromHistogram(p *promWriter, name, help string, h HistogramSnapshot) {
	p.family(name, "histogram", help)
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		p.printf("%s_bucket{le=%q} %d\n", name,
			strconv.FormatFloat(float64(b.Le)/1e9, 'g', -1, 64), cum)
	}
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	p.printf("%s_sum %s\n", name, strconv.FormatFloat(float64(h.Sum)/1e9, 'g', -1, 64))
	p.printf("%s_count %d\n", name, h.Count)
}
