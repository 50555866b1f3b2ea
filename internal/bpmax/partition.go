package bpmax

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/bpmax-go/bpmax/internal/nussinov"
	"github.com/bpmax-go/bpmax/internal/score"
	"github.com/bpmax-go/bpmax/internal/semiring"
)

// This file is the BPPart entry point: the BPMax recurrence evaluated as a
// sum-product over Boltzmann factors e^{w/kT}, through the exact max-plus
// schedules (solveAlg); only the algebra view differs. The result cell
// F[0,N1-1,0,N2-1] is Z and its log LogZ — the log of the
// derivation-weighted interaction ensemble sum. Because the BPMax grammar is
// ambiguous (a structure can have several derivations), LogZ upper-bounds
// the structure-ensemble log-partition function and lower-bounds nothing
// less than the max-plus optimum: a sum of non-negative terms is at least
// its largest, so LogZ >= score/kT by induction, with kT·LogZ → score as
// kT → 0 (the derivation count is finite).
//
// Two domains compute that sum. The serving path runs the optimized
// schedules in the scaled linear domain (semiring.SumProductKernels over
// cells damped by e^{-σ} per nucleotide — one multiply-add per candidate),
// guarded by a range window. The log domain (semiring.LogSumExpKernels,
// a + log1p(exp(b-a)) per candidate) cannot leave float64's range; it
// serves the oracle variants and refills any fold whose guard tripped.

// sigmaEntropy is the first-pass guess of a strand's per-nucleotide
// derivation entropy (logZ - mfe/kT)/n, measured between 0.25 (kT = 0.1)
// and 1.5 (kT = 2) on random strands up to 400 nt. The first substrate pass
// only has to stay inside the guard window with it; the table is then
// rescaled to the exact σ = logZ/n.
const sigmaEntropy = 0.9

func checkKT(kT float64) error {
	if !(kT > 0) || math.IsInf(kT, 1) {
		return fmt.Errorf("bpmax: partition kT must be positive and finite (got %v)", kT)
	}
	return nil
}

func forbidden(w score.Value) bool { return w <= semiring.NegInf/2 }

// scalePartition maps a max-plus weight to the log-Boltzmann domain:
// forbidden sentinels become a true -Inf (so e^w = 0 exactly, rather than a
// large-but-finite spurious weight), everything else w/kT.
func scalePartition(w score.Value, kT float64) float64 {
	if forbidden(w) {
		return math.Inf(-1)
	}
	return float64(w) / kT
}

// boltzmann maps a max-plus pair weight to its damped linear factor
// e^{w/kT - damp} (damp = σ per nucleotide the pair closes). Forbidden pairs
// are an exact 0; ok reports whether an allowed pair's factor stayed inside
// the guard window — outside it, a product with an in-window cell could
// underflow unnoticed.
func boltzmann(w score.Value, kT, damp float64) (f float64, ok bool) {
	if forbidden(w) {
		return 0, true
	}
	f = math.Exp(float64(w)/kT - damp)
	return f, inGuard(f)
}

// PartitionS is one strand's Boltzmann substrate: the single-strand ensemble
// table and the domain it is stored in — scaled linear cells
// S·e^{-σ·(j-i+1)} when the range guard held, log-domain cells otherwise.
// Built per (strand, model, kT) and cacheable by content hash; read-only
// once built.
type PartitionS struct {
	T      *nussinov.GTable[float64]
	scaled bool
	sigma  float64
}

// LogAt returns log S[i,j]; empty intervals are log 1 = 0.
func (s *PartitionS) LogAt(i, j int) float64 {
	if j < i {
		return 0
	}
	return domain{scaled: s.scaled, sig1: s.sigma}.logOf(s.T.At(i, j), j-i+1, 0)
}

// Scaled reports whether the table holds scaled linear cells (false: the
// guard tripped during the build and the table is in the log domain).
func (s *PartitionS) Scaled() bool { return s.scaled }

// Bytes returns the table's storage footprint.
func (s *PartitionS) Bytes() int64 { return s.T.Bytes() }

// logData returns the table's cells in the log domain, at the table's
// pitch, converting a scaled table into fresh storage (O(n²) logs).
func (s *PartitionS) logData() []float64 {
	if !s.scaled {
		return s.T.Data()
	}
	n, p := s.T.N, s.T.Pitch()
	out := make([]float64, len(s.T.Data()))
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			out[i*p+j] = s.LogAt(i, j)
		}
	}
	return out
}

// BuildPartitionS fills the Boltzmann substrate of one strand (1 or 2) of p,
// whose max-plus S table must already be in place: it supplies the first
// scale guess. The fill is the float64 instantiation of the row-streamed
// substrate fill, O(n³) like any substrate fill, which is why it takes a
// context and cfg's parallel runtime, exactly as BuildS does. The scaled build
// runs first; if its guard trips the strand is rebuilt in the log domain.
func BuildPartitionS(ctx context.Context, p *Problem, strand int, kT float64, cfg Config) (*PartitionS, error) {
	if err := checkKT(kT); err != nil {
		return nil, err
	}
	n, intra, mfe := p.N1, p.Tab.Intra1, p.S1.At(0, p.N1-1)
	if strand == 2 {
		n, intra, mfe = p.N2, p.Tab.Intra2, p.S2.At(0, p.N2-1)
	}
	pfor := cfg.ParallelFor(n)
	if s, err := buildScaledS(ctx, n, intra, mfe, kT, pfor); s != nil || err != nil {
		return s, err
	}
	t, lse := nussinov.NewGTable[float64](n), semiring.LogSumExpKernels()
	err := t.FillContext(ctx, lse, lse.One, nussinov.ScoreRows(n, func(i, j int) float64 {
		return scalePartition(intra[i*n+j], kT)
	}), false, pfor)
	if err != nil {
		return nil, err
	}
	return &PartitionS{T: t}, nil
}

// buildScaledS is the scaled-domain substrate build: one pass under the
// guess σ₀ = mfe/(kT·n) + sigmaEntropy, then an O(n²) rescale to the exact
// σ = logZ/n — n distinct factors e^{(σ₀-σ)·len}, one per interval length —
// which centres the table (the whole strand's cell becomes 1) however far
// off the guess was. It returns (nil, nil) when a pair factor or a cell,
// before or after the rescale, left the guard window.
func buildScaledS(ctx context.Context, n int, intra []score.Value, mfe float32, kT float64, pfor nussinov.ParallelFor) (*PartitionS, error) {
	sig0 := float64(mfe)/(kT*float64(n)) + sigmaEntropy
	var outside atomic.Bool // set from the fill's tiles, concurrently when tiled
	t := nussinov.NewGTable[float64](n)
	err := t.FillContext(ctx, semiring.SumProductKernels(), math.Exp(-sig0), nussinov.ScoreRows(n, func(i, j int) float64 {
		f, ok := boltzmann(intra[i*n+j], kT, 2*sig0)
		if !ok {
			outside.Store(true)
		}
		return f
	}), false, pfor)
	if err != nil {
		return nil, err
	}
	z := t.At(0, n-1)
	if outside.Load() || !inGuard(z) {
		return nil, nil
	}
	sig := (math.Log(z) + sig0*float64(n)) / float64(n)
	rescale := make([]float64, n+1)
	for l := range rescale {
		rescale[l] = math.Exp((sig0 - sig) * float64(l))
	}
	for i := 0; i < n; i++ {
		row := t.Row(i)
		if !inGuardWindow(row[i:]) {
			return nil, nil
		}
		for j := i; j < n; j++ {
			row[j] *= rescale[j-i+1]
		}
		if !inGuardWindow(row[i:]) {
			return nil, nil
		}
	}
	return &PartitionS{T: t, scaled: true, sigma: sig}, nil
}

// PartitionSub bundles the Boltzmann inputs of one partition fill: the two
// strands' substrate tables, the pair-weight matrices and strand 2's star
// table, as the algebra view the fill runs over. It is the float64
// counterpart of the Problem's S1/S2/Tab set. The view is scaled when both
// strands' tables are and every pair factor and star cell fits the guard
// window, log-domain otherwise. The S tables are shared and read-only; the
// matrices belong to this value and go back to the problem's pool on Release.
type PartitionSub struct {
	KT     float64
	S1, S2 *PartitionS

	a   alg[float64]
	buf []float64 // backing of a.sc1, a.sc2, a.isc, a.star
	pl  *Pool

	// logOnce builds logA, the log-domain view the oracle variants and the
	// guard fallback run over, when a is scaled.
	logOnce sync.Once
	logA    alg[float64]
}

// Scaled reports whether the optimized schedules will try the scaled fill.
func (ps *PartitionSub) Scaled() bool { return ps.a.dom.scaled }

// Bytes returns the substrate's storage footprint (tables and matrices).
func (ps *PartitionSub) Bytes() int64 {
	return ps.S1.Bytes() + ps.S2.Bytes() + int64(len(ps.buf))*8
}

// Release returns the pair-weight matrices to the pool they came from. It
// is idempotent and a no-op for unpooled substrates; the substrate must not
// be solved over afterwards (its S tables stay readable).
func (ps *PartitionSub) Release() {
	if ps == nil || ps.pl == nil {
		return
	}
	ps.pl.f64.buf.Put(ps.buf)
	ps.pl, ps.buf = nil, nil
	ps.a.sc1, ps.a.sc2, ps.a.isc, ps.a.star = nil, nil, nil, nil
}

// NewPartitionSub assembles the fill's inputs from the two strands'
// substrates (built by BuildPartitionS, or from the substrate cache): it
// picks the domain and writes the pair-weight matrices and the star table —
// O(N2³), so built per fold, not cached — in storage from p's pool when p
// is pooled.
func NewPartitionSub(p *Problem, kT float64, s1, s2 *PartitionS) (*PartitionSub, error) {
	if err := checkKT(kT); err != nil {
		return nil, err
	}
	ps := &PartitionSub{KT: kT, S1: s1, S2: s2, pl: p.pl}
	if ps.pl != nil {
		ps.buf = ps.pl.f64.buf.Get(matrixCells(p.N1, p.N2))
	} else {
		ps.buf = make([]float64, matrixCells(p.N1, p.N2))
	}
	ps.a = matrixAlg(p, ps.buf)
	if !(s1.scaled && s2.scaled && fillScaled(&ps.a, p.Tab, kT, s1, s2)) {
		fillLog(&ps.a, p.Tab, kT, s1, s2)
	}
	return ps, nil
}

// matrixCells is the storage the three pair-weight matrices and strand 2's
// star table, at the pitch of strand 2's float64 S table, of an n1 × n2
// problem take.
func matrixCells(n1, n2 int) int { return n1*n1 + n2*n2 + n1*n2 + n2*nussinov.PitchOf(n2, 8) }

// PartitionSubBytes is the Boltzmann substrate's footprint for an n1 × n2
// problem without allocating it: the two float64 S tables at their pitch,
// the three pair-weight matrices and the star table, what PartitionSub.Bytes
// returns once it is built.
func PartitionSubBytes(n1, n2 int) int64 {
	return int64(n1*nussinov.PitchOf(n1, 8)+n2*nussinov.PitchOf(n2, 8)+matrixCells(n1, n2)) * elemBytes[float64]()
}

// matrixAlg returns a closure view whose sc1, sc2, isc and star carve up
// buf (matrixCells long); fillScaled or fillLog supplies the rest, the
// pitches included.
func matrixAlg(p *Problem, buf []float64) alg[float64] {
	a, b := p.N1*p.N1, p.N1*p.N1+p.N2*p.N2
	c := b + p.N1*p.N2
	return alg[float64]{n1: p.N1, n2: p.N2, sc1: buf[:a], sc2: buf[a:b], isc: buf[b:c], star: buf[c:]}
}

// fillScaled writes the scaled view: the damping of each pair term, constant
// over the table, folds into its weight once — e^{w/kT-2σ₁} and e^{w/kT-2σ₂}
// for the intramolecular pairs (two nucleotides of one strand),
// e^{w/kT-σ₁-σ₂} for the intermolecular bond (one of each). Only i < j is
// ever read of the intramolecular matrices; the rest stays 0 (forbidden).
// It reports false, leaving the matrices half-written, if a factor or a
// star cell left the guard window.
func fillScaled(a *alg[float64], tab *score.Tables, kT float64, s1, s2 *PartitionS) bool {
	a.k = semiring.SumProductKernels()
	a.dom = domain{scaled: true, sig1: s1.sigma, sig2: s2.sigma}
	a.s1, a.s2, a.p1, a.p2 = s1.T.Data(), s2.T.Data(), s1.T.Pitch(), s2.T.Pitch()
	intra := func(dst []float64, src []score.Value, n int, sigma float64) bool {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				f, ok := boltzmann(src[i*n+j], kT, 2*sigma)
				if !ok {
					return false
				}
				dst[i*n+j] = f
			}
		}
		return true
	}
	if !intra(a.sc1, tab.Intra1, a.n1, s1.sigma) || !intra(a.sc2, tab.Intra2, a.n2, s2.sigma) {
		return false
	}
	for i, w := range tab.Inter {
		f, ok := boltzmann(w, kT, s1.sigma+s2.sigma)
		if !ok {
			return false
		}
		a.isc[i] = f
	}
	return fillStar(a)
}

// fillLog writes the log-domain view: every weight w/kT (forbidden ⇒ -Inf),
// every matrix entry overwritten.
func fillLog(a *alg[float64], tab *score.Tables, kT float64, s1, s2 *PartitionS) {
	a.k = semiring.LogSumExpKernels()
	a.dom = domain{}
	a.s1, a.s2, a.p1, a.p2 = s1.logData(), s2.logData(), s1.T.Pitch(), s2.T.Pitch()
	for i, w := range tab.Intra1 {
		a.sc1[i] = scalePartition(w, kT)
	}
	for i, w := range tab.Intra2 {
		a.sc2[i] = scalePartition(w, kT)
	}
	for i, w := range tab.Inter {
		a.isc[i] = scalePartition(w, kT)
	}
	fillStar(a)
}

// fillStar writes strand 2's star table (docs/ALGORITHM.md §4): row r is R2
// applied to S² row r, star[r,j] = S²[r,j] ⊕ (⊕ over r ≤ m < j of
// S²[r,m] ⊗ star[m+1,j]); row k+1 is (T* − I)[k,·]. Rows go bottom-up, one
// Accum per (r, m), O(N2³); m descends so the longest chains join last, which
// keeps the rounding linear in N2. It reports whether every cell it wrote
// (j ≥ r) lies inside the guard window, which only a scaled view asks.
func fillStar(a *alg[float64]) bool {
	n, p, s2, star, inWindow := a.n2, a.p2, a.s2, a.star, true
	for r := n - 1; r >= 0; r-- {
		row := star[r*p : r*p+n]
		copy(row, s2[r*p:r*p+n])
		for m := n - 2; m >= r; m-- {
			a.k.Accum(row[m+1:], star[(m+1)*p+m+1:(m+1)*p+n], s2[r*p+m])
		}
		inWindow = inWindow && inGuardWindow(row[r:])
	}
	return inWindow
}

// logAlg returns the log-domain view: ps's own when it already is one,
// otherwise one derived from it on first use (converted S tables, fresh
// matrices — the oracle/fallback path is rare, so nothing here is pooled).
func (ps *PartitionSub) logAlg(p *Problem) alg[float64] {
	if !ps.a.dom.scaled {
		return ps.a
	}
	ps.logOnce.Do(func() {
		ps.logA = matrixAlg(p, make([]float64, matrixCells(p.N1, p.N2)))
		fillLog(&ps.logA, p.Tab, ps.KT, ps.S1, ps.S2)
	})
	return ps.logA
}

// BuildPartitionSub is both single-strand fills, inline on the calling
// goroutine, plus NewPartitionSub.
func BuildPartitionSub(ctx context.Context, p *Problem, kT float64) (*PartitionSub, error) {
	s1, err := BuildPartitionS(ctx, p, 1, kT, Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	s2, err := BuildPartitionS(ctx, p, 2, kT, Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	return NewPartitionSub(p, kT, s1, s2)
}

// SolvePartitionContext fills the float64 BPPart table for p under the
// given schedule variant, with SolveContext's cancellation and panic
// contract. The optimized schedules run ps's scaled view when it has one and
// return that table only if the range guard held on every cell; otherwise —
// and always for the oracle variants — the fill runs in the log domain
// (GuardRefilled marks a refill after a trip). Read results through LogAt /
// PartitionLogZ. Variants and domains agree to tight relative tolerance,
// not bit for bit: floating-point sums are not associative.
func SolvePartitionContext(ctx context.Context, p *Problem, ps *PartitionSub, v Variant, cfg Config) (ft *FTableOf[float64], err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			ft, err = nil, capturePanic(r)
		}
	}()
	if e := ctx.Err(); e != nil {
		return nil, e
	}
	oracle := v == VariantReference || v == VariantBase
	if !ps.a.dom.scaled || oracle {
		return solveAlg(ctx, p, ps.logAlg(p), v, cfg)
	}
	// The view's kernels are the process's (fillScaled); the configuration may
	// ask for the Go loops instead.
	scaled := ps.a
	scaled.k = cfg.sumProductKernels()
	if ft, err = solveAlg(ctx, p, scaled, v, cfg); !errors.Is(err, errScaledRange) {
		return ft, err
	}
	if ft, err = solveAlg(ctx, p, ps.logAlg(p), v, cfg); err == nil {
		ft.refilled = true
	}
	return ft, err
}

// PartitionLogZ reads the whole-pair log-partition value from a filled
// BPPart table.
func PartitionLogZ(p *Problem, f *FTableOf[float64]) float64 {
	return f.LogAt(0, p.N1-1, 0, p.N2-1)
}
