package metrics

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fillDistinct sets every scalar field reachable from struct v — through
// pointers (allocated), nested structs and maps (one entry, key "x") — to a
// value no other field holds, and records each one's exposition form under
// its dotted JSON path. A HistogramSnapshot gets one observation instead,
// counted in *hists. Because the walk is reflective, a field added to any
// section is filled with no edit here.
func fillDistinct(t *testing.T, v reflect.Value, path string, next *int64, hists *int, leaves map[string]string) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || key == "" || key == "-" {
			continue
		}
		fillValue(t, fv, path+key, next, hists, leaves)
	}
}

func fillValue(t *testing.T, fv reflect.Value, path string, next *int64, hists *int, leaves map[string]string) {
	t.Helper()
	*next++
	switch {
	case fv.Type() == reflect.TypeOf(HistogramSnapshot{}):
		var h Histogram
		h.Observe(*next)
		fv.Set(reflect.ValueOf(h.Snapshot()))
		*hists++
	case fv.Kind() == reflect.Pointer:
		fv.Set(reflect.New(fv.Type().Elem()))
		fillDistinct(t, fv.Elem(), path+".", next, hists, leaves)
	case fv.Kind() == reflect.Struct:
		fillDistinct(t, fv, path+".", next, hists, leaves)
	case fv.Kind() == reflect.Map:
		elem := reflect.New(fv.Type().Elem()).Elem()
		fillValue(t, elem, path+".x", next, hists, leaves)
		fv.Set(reflect.MakeMap(fv.Type()))
		fv.SetMapIndex(reflect.ValueOf("x"), elem)
	case fv.Kind() == reflect.Bool:
		fv.SetBool(true)
		leaves[path] = "1"
	case fv.CanInt():
		fv.SetInt(*next)
		leaves[path] = strconv.FormatInt(*next, 10)
	case fv.CanUint():
		fv.SetUint(uint64(*next))
		leaves[path] = strconv.FormatInt(*next, 10)
	case fv.CanFloat():
		fv.SetFloat(float64(*next) + 0.5)
		leaves[path] = strconv.FormatFloat(float64(*next)+0.5, 'g', -1, 64)
	default:
		t.Fatalf("%s: a %s field has no Prometheus sample form", path, fv.Type())
	}
}

// fullSnapshot is a Snapshot with every section attached and every field
// distinct, rendered.
func fullSnapshot(t *testing.T) (s Snapshot, leaves map[string]string, hists int, out string) {
	t.Helper()
	leaves = map[string]string{}
	next := int64(1000)
	fillDistinct(t, reflect.ValueOf(&s).Elem(), "", &next, &hists, leaves)
	var b strings.Builder
	if err := WriteProm(&b, &s); err != nil {
		t.Fatal(err)
	}
	return s, leaves, hists, b.String()
}

// TestWritePromRendersEveryField: every scalar field of a fully populated
// snapshot — every section, a phase, a fault site — is exactly one sample of
// the exposition, and every histogram is one histogram family.
func TestWritePromRendersEveryField(t *testing.T) {
	_, leaves, hists, out := fullSnapshot(t)
	histFams := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutSuffix(line, " histogram"); ok && strings.HasPrefix(name, "# TYPE ") {
			histFams[strings.TrimPrefix(name, "# TYPE ")] = true
		}
	}
	if len(histFams) != hists {
		t.Errorf("%d histogram families, want %d", len(histFams), hists)
	}
	values := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		if fam, ok := strings.CutSuffix(name, "_count"); ok && histFams[fam] && val != "1" {
			t.Errorf("%s: %s observations, want 1", fam, val)
		}
		inHist := false
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			fam, ok := strings.CutSuffix(name, suffix)
			inHist = inHist || ok && histFams[fam]
		}
		if !inHist {
			values[val]++
		}
	}
	for path, val := range leaves {
		if n := values[val]; n != 1 {
			t.Errorf("field %s = %s: %d samples carry it, want 1", path, val, n)
		}
	}
}

// TestWritePromKeepsFamilies pins every family the hand-written exposition
// emitted — name, type, and the field its value came from — so a dashboard
// built on it keeps working.
func TestWritePromKeepsFamilies(t *testing.T) {
	s, leaves, _, out := fullSnapshot(t)
	leaves["pool.hit_rate"] = strconv.FormatFloat(s.Pool.HitRate(), 'g', -1, 64)
	leaves["fold_nanos.count"] = "1"
	for _, fam := range []struct{ name, typ, field, labels string }{
		{"bpmax_folds_total", "counter", "folds", ""},
		{"bpmax_fold_errors_total", "counter", "errors", ""},
		{"bpmax_folds_degraded_total", "counter", "degraded", ""},
		{"bpmax_cells_total", "counter", "cells", ""},
		{"bpmax_flops_total", "counter", "flops", ""},
		{"bpmax_fill_nanos_total", "counter", "fill_nanos", ""},
		{"bpmax_retries_total", "counter", "retries", ""},
		{"bpmax_retry_successes_total", "counter", "retry_successes", ""},
		{"bpmax_retries_exhausted_total", "counter", "retries_exhausted", ""},
		{"bpmax_partition_guard_fallbacks_total", "counter", "partition_guard_fallbacks", ""},
		{"bpmax_table_bytes_high_water", "gauge", "table_bytes_high_water", ""},
		{"bpmax_phase_nanos_total", "counter", "phases.x.nanos", `{phase="x"}`},
		{"bpmax_phase_units_total", "counter", "phases.x.units", `{phase="x"}`},
		{"bpmax_fold_duration_seconds", "histogram", "fold_nanos.count", "_count"},
		{"bpmax_cache_substrate_hits_total", "counter", "cache.substrate_hits", ""},
		{"bpmax_cache_substrate_misses_total", "counter", "cache.substrate_misses", ""},
		{"bpmax_cache_result_hits_total", "counter", "cache.result_hits", ""},
		{"bpmax_cache_result_misses_total", "counter", "cache.result_misses", ""},
		{"bpmax_cache_singleflight_shared_total", "counter", "cache.single_flight_shared", ""},
		{"bpmax_cache_evictions_total", "counter", "cache.evictions", ""},
		{"bpmax_cache_entries", "gauge", "cache.entries", ""},
		{"bpmax_cache_retained_bytes", "gauge", "cache.retained_bytes", ""},
		{"bpmax_cache_breaker_opens_total", "counter", "cache.breaker_opens", ""},
		{"bpmax_admission_running", "gauge", "admission.running", ""},
		{"bpmax_admission_queue_depth", "gauge", "admission.queue_depth", ""},
		{"bpmax_admission_admitted_total", "counter", "admission.admitted", ""},
		{"bpmax_admission_rejected_total", "counter", "admission.rejected", ""},
		{"bpmax_admission_expired_total", "counter", "admission.expired", ""},
		{"bpmax_admission_wait_nanos_total", "counter", "admission.wait_nanos_total", ""},
		{"bpmax_engine_width", "gauge", "engine.width", ""},
		{"bpmax_engine_runs_total", "counter", "engine.runs", ""},
		{"bpmax_engine_helpers_recruited_total", "counter", "engine.helpers_recruited", ""},
		{"bpmax_engine_panics_total", "counter", "engine.panics", ""},
		{"bpmax_pool_hit_rate", "gauge", "pool.hit_rate", ""},
		{"bpmax_pool_live_buffers", "gauge", "pool.buffers.live", ""},
		{"bpmax_pool_retained_bytes", "gauge", "pool.buffers.retained_bytes", ""},
		{"bpmax_server_requests_total", "counter", "server.requests", ""},
		{"bpmax_server_in_flight", "gauge", "server.in_flight", ""},
		{"bpmax_server_ok_total", "counter", "server.ok", ""},
		{"bpmax_server_bad_request_total", "counter", "server.bad_request", ""},
		{"bpmax_server_shed_total", "counter", "server.shed", ""},
		{"bpmax_server_unavailable_total", "counter", "server.unavailable", ""},
		{"bpmax_server_timeouts_total", "counter", "server.timeouts", ""},
		{"bpmax_server_failed_total", "counter", "server.failed", ""},
		{"bpmax_server_client_disconnects_total", "counter", "server.client_disconnects", ""},
		{"bpmax_server_draining", "gauge", "server.draining", ""},
		{"bpmax_go_goroutines", "gauge", "runtime.goroutines", ""},
		{"bpmax_go_gc_pause_nanos_total", "counter", "runtime.gc_pause_total_nanos", ""},
		{"bpmax_go_gc_cycles_total", "counter", "runtime.num_gc", ""},
		{"bpmax_go_heap_alloc_bytes", "gauge", "runtime.heap_alloc_bytes", ""},
		{"bpmax_go_sched_latency_p50_nanos", "gauge", "runtime.sched_latency_p50_nanos", ""},
		{"bpmax_go_sched_latency_p99_nanos", "gauge", "runtime.sched_latency_p99_nanos", ""},
	} {
		if want := "\n# TYPE " + fam.name + " " + fam.typ + "\n"; !strings.Contains(out, want) {
			t.Errorf("missing %q", strings.TrimSpace(want))
		}
		val, ok := leaves[fam.field]
		if want := "\n" + fam.name + fam.labels + " " + val + "\n"; !ok || !strings.Contains(out, want) {
			t.Errorf("missing %q (field %s)", strings.TrimSpace(want), fam.field)
		}
	}
}
