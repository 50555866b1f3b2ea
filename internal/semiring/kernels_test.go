package semiring_test

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/bpmax-go/bpmax/internal/maxplus"

	. "github.com/bpmax-go/bpmax/internal/semiring"
)

// slots returns a body's Impl and, by name, the function value each of its
// kernel slots holds, 0 for a nil slot. The word a func variable holds points
// at its closure, so two closures built by one constructor (productOf, liveOf,
// ...) differ here although reflect.Value.Pointer, their shared code pointer,
// cannot tell them apart.
func slots[T Scalar](b maxplus.Body[T]) (string, map[string]uintptr) {
	v := reflect.ValueOf(&b).Elem()
	ptrs := map[string]uintptr{}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Func {
			ptrs[v.Type().Field(i).Name] = *(*uintptr)(unsafe.Pointer(f.UnsafeAddr()))
		}
	}
	return b.Impl, ptrs
}

// sameBody fails unless got is want slot for slot: each slot the very
// function value, closure included, that want's holds.
func sameBody[T Scalar](t *testing.T, what string, got, want maxplus.Body[T]) {
	t.Helper()
	gi, gs := slots(got)
	wi, ws := slots(want)
	if gi != wi {
		t.Errorf("%s: Impl %q, its body's %q", what, gi, wi)
	}
	for name, p := range ws {
		if gs[name] != p {
			t.Errorf("%s: slot %s is not its body's own function", what, name)
		}
	}
}

// checkAlgebraSlots fails unless every streaming slot of b is set, and R2 and
// Live are set exactly where maxPlus says b is a max-plus bundle.
func checkAlgebraSlots[T Scalar](t *testing.T, what string, b maxplus.Body[T], maxPlus bool) {
	t.Helper()
	_, s := slots(b)
	for name, p := range s {
		if want := maxPlus || name != "R2" && name != "Live"; (p != 0) != want {
			t.Errorf("%s: slot %s set %v, want %v", what, name, p != 0, want)
		}
	}
}

// TestBundlesAreTheirBodies pins the binding to one place: every bundle on a
// named body carries that body of package maxplus slot for slot (R2 and Live
// included; a slot holding another body's closure of the same constructor
// fails), and the process's bundles are the process's body — under
// `-tags purego`, where maxplus.Impl is "go", MaxPlusKernels(true) is
// BodyOf("go"). R2 and Live are set on every float32 bundle, the plain-loop
// oracle included, and nil on the float64 ones.
func TestBundlesAreTheirBodies(t *testing.T) {
	for _, impl := range maxplus.Impls() {
		mp, sp := MaxPlusKernelsOf(impl), SumProductKernelsOf(impl)
		sameBody(t, "MaxPlusKernelsOf("+impl+")", mp.Body, maxplus.BodyOf[float32](impl))
		sameBody(t, "SumProductKernelsOf("+impl+")", sp.Body, maxplus.BodyOf[float64](impl))
		checkAlgebraSlots(t, "MaxPlusKernelsOf("+impl+")", mp.Body, true)
		checkAlgebraSlots(t, "SumProductKernelsOf("+impl+")", sp.Body, false)
	}
	impl := maxplus.Impl()
	sameBody(t, "MaxPlusKernels(true)", MaxPlusKernels(true).Body, maxplus.BodyOf[float32](impl))
	sameBody(t, "SumProductKernels()", SumProductKernels().Body, maxplus.BodyOf[float64](impl))
	if impl != "go" {
		sameBody(t, "MaxPlusKernels(false)", MaxPlusKernels(false).Body, maxplus.BodyOf[float32](impl))
	}

	// The oracle: the plain loops in the streaming slots, the Go body's
	// elsewhere.
	oracle, goBody := MaxPlusKernelsGo().Body, maxplus.BodyOf[float32]("go")
	_, ops := slots(oracle)
	_, gs := slots(goBody)
	for name, p := range ops {
		plain := name == "Accum" || name == "Sweep" || name == "Product"
		if (p == gs[name]) == plain {
			t.Errorf("the oracle's %s is the Go body's: %v, want %v", name, p == gs[name], !plain)
		}
	}
	if reflect.ValueOf(oracle.Accum).Pointer() != reflect.ValueOf(maxplus.AccumulateGo).Pointer() {
		t.Error("the oracle's Accum is not maxplus.AccumulateGo")
	}
	if impl == "go" {
		sameBody(t, "MaxPlusKernels(false)", MaxPlusKernels(false).Body, oracle)
	}
	checkAlgebraSlots(t, "MaxPlusKernelsGo()", oracle, true)
	checkAlgebraSlots(t, "LogSumExpKernels()", LogSumExpKernels().Body, false)
}
