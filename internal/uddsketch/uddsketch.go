// Package uddsketch implements UDDSketch (Epicoco et al., IEEE Access
// 2020), the uniform-collapse variant of DDSketch. Like DDSketch it is a
// log-bucketed histogram, but when the bucket budget is exhausted it
// collapses *every* adjacent bucket pair (i, i+1), i odd, into bucket
// ⌈i/2⌉ — squaring γ and degrading the relative-error guarantee uniformly
// to α' = 2α/(1+α²) instead of sacrificing the lowest quantiles.
//
// Because atanh(α') = 2·atanh(α) under that recurrence, the initial
// accuracy needed to guarantee a final accuracy α_k after k−1 collapses is
// α₀ = tanh(atanh(α_k)/2^(k−1)), which NewWithBudget computes (paper
// Sec 3.4 and 4.2).
//
// Mirroring the study's methodology, the default store is a Go map — the
// paper's UDDSketch deliberately keeps the map-backed bucket store of the
// original C implementation, and attributes its slower insert/merge times
// to it. NewDense builds the same sketch over a dense array store, the
// other arm of that ablation (see store.go).
package uddsketch

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/fastlog"
	"repro/internal/sketch"
)

// Bucket indexer kinds. The cubic indexer replaces the per-insert
// math.Log with a float-bit log2 approximation (internal/fastlog) whose
// slope distortion is folded into a precomputed multiplier, preserving
// the α guarantee by construction. The exact-log indexer is retained for
// sketches deserialized from envelopes that predate the fast indexer
// (their bucket boundaries are log_γ's, not the cubic approximation's,
// so the indexer kind must travel with the data).
const (
	indexerLog   byte = 0 // exact ⌈log_γ x⌉ via math.Log (legacy envelopes)
	indexerCubic byte = 1 // ⌈ℓ(x)·multiplier⌉ via fastlog.Log2Cubic (default)
)

// indexerFlagCubic marks the cubic indexer in the serialized collapse
// counter's high bit. Collapses are bounded (≤4096; α saturates long
// before), so the bit is always clear in envelopes written before the
// fast indexer existed — those decode as exact-log sketches, keeping
// their bucket boundaries meaningful, with no format-version bump and
// no change to the length of the envelope (truncations stay detectable).
const indexerFlagCubic = uint32(1) << 31

// indexerBits returns the flag bits to fold into the collapse counter.
func indexerBits(indexer byte) uint32 {
	if indexer == indexerCubic {
		return indexerFlagCubic
	}
	return 0
}

// initMultiplier returns the cubic indexer's buckets-per-ℓ-unit factor
// for an uncollapsed γ: 1/(minSlope·log2 γ), the same construction as
// DDSketch's cubic mapping.
func initMultiplier(gamma float64) float64 {
	return 1 / (fastlog.CubicMinSlope * math.Log2(gamma))
}

// Sketch is a UDDSketch instance covering the full real line (a positive
// store, a mirrored negative store, and an exact-zero counter). Both
// stores are of the kind its constructor chose.
type Sketch struct {
	initAlpha  float64
	alpha      float64
	gamma      float64
	logGamma   float64
	maxBuckets int
	collapses  int

	// indexer selects the bucket-boundary family; multiplier is the
	// cubic indexer's index factor. A uniform collapse merges index
	// pairs (2i−1, 2i) → i, which for fixed bucket boundaries is
	// exactly a halving of the multiplier — so the multiplier is
	// *halved* per collapse (exact in floating point) rather than
	// recomputed from the collapsed α, keeping collapse-then-insert and
	// insert-then-collapse bit-identical.
	indexer    byte
	multiplier float64

	positive store
	negative store
	zeroCnt  int64
	count    int64
	min, max float64
}

var (
	_ sketch.Sketch  = (*Sketch)(nil)
	_ sketch.Trimmer = (*Sketch)(nil)
)

// New returns a UDDSketch with initial relative accuracy alpha0 and a
// bucket budget of maxBuckets (counting positive and negative buckets
// together, at least 4). It panics on invalid parameters; use
// NewChecked for errors.
//
// The budget is always kept: each uniform collapse that it forces
// deteriorates α ← 2α/(1+α²), and a budget too small for the data's
// value range can collapse until α rounds to 1 in float64 — from
// α₀ = 0.01, 4 buckets over values spanning 1e-9 to 1e9 saturate at
// the 11th collapse. α = 1 (AccuracyBound) means no relative-error
// guarantee: answers keep their sign and stay within [min, max], and
// nothing more.
func New(alpha0 float64, maxBuckets int) *Sketch {
	s, err := NewChecked(alpha0, maxBuckets)
	if err != nil {
		panic(err)
	}
	return s
}

// NewChecked is New with error reporting instead of panicking.
func NewChecked(alpha0 float64, maxBuckets int) (*Sketch, error) {
	return newSketch(alpha0, maxBuckets, false)
}

// NewDense is NewChecked over a dense array store instead of the
// paper's map: the same sketch, answers and serialized bytes, a
// different speed and memory profile. It exists for the store ablation
// (ablation-uddstore).
func NewDense(alpha0 float64, maxBuckets int) (*Sketch, error) {
	return newSketch(alpha0, maxBuckets, true)
}

// NewWithBudget returns a UDDSketch whose *final* relative accuracy is
// still alphaK after numCollapses−1 uniform collapses, by starting from
// α₀ = tanh(atanh(alphaK)/2^(numCollapses−1)). This reproduces the study's
// configuration: alphaK = 0.01, maxBuckets = 1024, numCollapses = 12.
func NewWithBudget(alphaK float64, maxBuckets, numCollapses int) (*Sketch, error) {
	return newWithBudget(alphaK, maxBuckets, numCollapses, false)
}

// NewDenseWithBudget is NewWithBudget over a dense array store.
func NewDenseWithBudget(alphaK float64, maxBuckets, numCollapses int) (*Sketch, error) {
	return newWithBudget(alphaK, maxBuckets, numCollapses, true)
}

func newWithBudget(alphaK float64, maxBuckets, numCollapses int, dense bool) (*Sketch, error) {
	if !(alphaK > 0 && alphaK < 1) {
		return nil, fmt.Errorf("uddsketch: alpha must be in (0,1), got %v", alphaK)
	}
	if numCollapses < 1 {
		return nil, fmt.Errorf("uddsketch: numCollapses must be >= 1, got %d", numCollapses)
	}
	alpha0 := math.Tanh(math.Atanh(alphaK) / math.Pow(2, float64(numCollapses-1)))
	return newSketch(alpha0, maxBuckets, dense)
}

func newSketch(alpha0 float64, maxBuckets int, dense bool) (*Sketch, error) {
	if !(alpha0 > 0 && alpha0 < 1) {
		return nil, fmt.Errorf("uddsketch: alpha must be in (0,1), got %v", alpha0)
	}
	// Repeated collapses bring every positive index to 1 or 0 and every
	// negative-store index likewise, so 4 buckets is the least budget
	// that collapsing can always restore.
	if maxBuckets < 4 {
		return nil, fmt.Errorf("uddsketch: need at least 4 buckets, got %d", maxBuckets)
	}
	s := &Sketch{
		initAlpha:  alpha0,
		maxBuckets: maxBuckets,
		indexer:    indexerCubic,
		positive:   newStore(dense, 0),
		negative:   newStore(dense, 0),
	}
	s.reset()
	return s, nil
}

// newStore returns an empty store of the chosen kind, a map sized for
// hint buckets or a dense array.
func newStore(dense bool, hint int) store {
	if dense {
		return new(denseStore)
	}
	return make(mapStore, hint)
}

// dense reports whether the sketch keeps its buckets in dense stores; a
// zero Sketch, as a decode target, counts as the paper's map.
func (s *Sketch) dense() bool {
	_, ok := s.positive.(*denseStore)
	return ok
}

func (s *Sketch) setAlpha(alpha float64) {
	s.alpha = alpha
	s.gamma = (1 + alpha) / (1 - alpha)
	s.logGamma = math.Log(s.gamma)
}

// Name implements sketch.Sketch.
func (s *Sketch) Name() string { return "uddsketch" }

// Alpha returns the *current* relative-error guarantee (grows with each
// collapse).
func (s *Sketch) Alpha() float64 { return s.alpha }

// InitialAlpha returns the α₀ the sketch started from.
func (s *Sketch) InitialAlpha() float64 { return s.initAlpha }

// Gamma returns the current bucket growth factor.
func (s *Sketch) Gamma() float64 { return s.gamma }

// Collapses reports how many uniform collapse operations have run.
func (s *Sketch) Collapses() int { return s.collapses }

// MaxBuckets returns the configured bucket budget.
func (s *Sketch) MaxBuckets() int { return s.maxBuckets }

// UseLegacyLogIndexer switches an *empty* sketch to the exact-log
// indexer retained for pre-fast-indexer envelopes — for ablation
// benchmarks and cross-checks. Panics once the sketch holds data, since
// already-assigned buckets would change meaning.
func (s *Sketch) UseLegacyLogIndexer() {
	if s.count != 0 || s.zeroCnt != 0 {
		panic("uddsketch: cannot change indexer of a non-empty sketch")
	}
	s.indexer = indexerLog
}

// minIndexable is the smallest magnitude this sketch can bucket: the
// cubic indexer needs exact exponent extraction (no subnormals), the
// legacy indexer only needs the index computation not to underflow.
func (s *Sketch) minIndexable() float64 {
	if s.indexer == indexerCubic {
		return fastlog.MinIndexable
	}
	return math.Exp(float64(math.MinInt32+1) * s.logGamma)
}

//sketch:hotpath
func (s *Sketch) index(x float64) int {
	if s.indexer == indexerCubic {
		return int(math.Ceil(fastlog.Log2Cubic(x) * s.multiplier))
	}
	return int(math.Ceil(math.Log(x) / s.logGamma))
}

func (s *Sketch) value(i int) float64 {
	if s.indexer == indexerCubic {
		lo := fastlog.Log2CubicInverse((float64(i) - 1) / s.multiplier)
		hi := fastlog.Log2CubicInverse(float64(i) / s.multiplier)
		// Harmonic midpoint in the overflow-safe form — the product
		// lo·hi overflows past ~1e154.
		return 2 * (hi / (1 + hi/lo))
	}
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Insert implements sketch.Sketch. NaNs are ignored; zeros and values too
// small to index are counted exactly.
func (s *Sketch) Insert(x float64) { s.InsertN(x, 1) }

// InsertN adds n occurrences of x in O(1).
func (s *Sketch) InsertN(x float64, n uint64) {
	if math.IsNaN(x) || n == 0 {
		return
	}
	if metrics != nil {
		metrics.Inserts.Add(int64(n))
	}
	var grew bool
	switch {
	case x > 0 && x >= s.minIndexable():
		grew = s.positive.add(s.index(x), int64(n))
	case x < 0 && -x >= s.minIndexable():
		grew = s.negative.add(s.index(-x), int64(n))
	default:
		s.zeroCnt += int64(n)
	}
	s.count += int64(n)
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if grew && s.NonEmptyBuckets() > s.maxBuckets {
		s.collapseToBudget()
	}
}

// collapseToBudget runs uniform collapses until the bucket budget
// holds again.
func (s *Sketch) collapseToBudget() {
	for s.NonEmptyBuckets() > s.maxBuckets {
		s.uniformCollapse()
	}
	s.assertInvariants("collapse")
}

// uniformCollapse merges every adjacent (odd, even) index pair into
// ⌈i/2⌉, squares γ, and updates the error guarantee α ← 2α/(1+α²).
// Each store collapses in place.
func (s *Sketch) uniformCollapse() {
	s.positive.collapse()
	s.negative.collapse()
	s.collapsed()
}

// collapsed advances the accuracy bookkeeping by one uniform collapse,
// once the stores hold the collapsed buckets.
func (s *Sketch) collapsed() {
	s.setAlpha(2 * s.alpha / (1 + s.alpha*s.alpha))
	// Halving is exact in floating point, so the cubic indexer's bucket
	// boundaries after the collapse are exactly the merged pairs'.
	s.multiplier /= 2
	s.collapses++
	if metrics != nil {
		// A uniform collapse is both a store collapse and an α
		// deterioration — UDDSketch degrades its guarantee on every one.
		metrics.Collapses.Inc()
		metrics.AlphaDeteriorations.Inc()
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
}

// Count implements sketch.Sketch.
func (s *Sketch) Count() uint64 { return uint64(s.count) }

// total sums a store's counts.
func total(st store) int64 { return st.addTo(nil, 1, 0) }

// Quantile implements sketch.Sketch: QuantileAll at one target.
func (s *Sketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	out, err := s.QuantileAll([]float64{q})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// storeTarget is one batched rank target: a store scan resolves it at
// the first bucket whose cumulative count exceeds want; pos is its slot
// in the output.
type storeTarget struct {
	want int64
	pos  int
}

// QuantileAll implements sketch.MultiQuantiler: the negative total is
// summed once, and one cumulative scan of each touched store, in index
// order, resolves all of that store's targets in ascending rank order —
// instead of one full store walk plus key sort per quantile.
func (s *Sketch) QuantileAll(qs []float64) ([]float64, error) {
	if err := sketch.ValidateQuantiles(qs, s.count == 0); err != nil {
		return nil, err
	}
	negTotal := total(s.negative)
	out := make([]float64, len(qs))
	var negT, posT []storeTarget
	for i, q := range qs {
		rank := int64(math.Ceil(q * float64(s.count)))
		if rank < 1 {
			rank = 1
		}
		if rank > s.count {
			rank = s.count
		}
		switch {
		case rank <= negTotal:
			// The negative store's index order runs from the value
			// nearest zero outwards, so rank counts back from negTotal.
			negT = append(negT, storeTarget{negTotal - rank, i})
		case rank <= negTotal+s.zeroCnt:
			out[i] = 0
		default:
			posT = append(posT, storeTarget{rank - negTotal - s.zeroCnt - 1, i})
		}
	}
	s.resolve(s.negative, negT, -1, out)
	s.resolve(s.positive, posT, 1, out)
	return out, nil
}

// resolve answers targets ts from one store: the bucket value times
// sign, clamped to [min, max], or the extreme on that side for a target
// the scan never reaches.
func (s *Sketch) resolve(st store, ts []storeTarget, sign float64, out []float64) {
	if len(ts) == 0 {
		return
	}
	slices.SortFunc(ts, func(a, b storeTarget) int { return cmp.Compare(a.want, b.want) })
	k := 0
	var cum int64
	st.ascending(func(i int, c int64) bool {
		cum += c
		for k < len(ts) && cum > ts[k].want {
			out[ts[k].pos] = s.clamp(sign * s.value(i))
			k++
		}
		return k < len(ts)
	})
	rest := s.max
	if sign < 0 {
		rest = s.min
	}
	for ; k < len(ts); k++ {
		out[ts[k].pos] = s.clamp(rest)
	}
}

func (s *Sketch) clamp(x float64) float64 {
	if x < s.min {
		return s.min
	}
	if x > s.max {
		return s.max
	}
	return x
}

// Rank implements sketch.Sketch.
func (s *Sketch) Rank(x float64) (float64, error) {
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	if math.IsNaN(x) {
		return 0, nil
	}
	var le int64
	if x >= 0 {
		le = total(s.negative) + s.zeroCnt
		if x > 0 {
			xi := s.index(x)
			s.positive.ascending(func(i int, c int64) bool {
				if i > xi {
					return false
				}
				le += c
				return true
			})
		}
	} else {
		xi := s.index(-x)
		s.negative.ascending(func(i int, c int64) bool {
			if i >= xi {
				le += c
			}
			return true
		})
	}
	return float64(le) / float64(s.count), nil
}

// Merge implements sketch.Sketch (the fusion algorithm of Cafaro et
// al.): the merged sketch takes the coarser γ of the two, and uniform
// collapses run while the bucket budget is exceeded. It is fuse at
// weight 1, the path MergeScaled takes at weight g.
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, err := s.mergeable(other)
	if err != nil {
		return err
	}
	s.fuse(o, 1)
	return nil
}

// fuse adds round(c·g) of every count of o into s — c itself at g = 1 —
// under UDDSketch's fusion rule. The receiver collapses up to o's level
// first; o's buckets are folded straight to the receiver's level as they
// are added (⌈i/2^d⌉ for a gap of d collapses), which sums the same
// counts into the same buckets as collapsing a copy of o would, without
// touching o. A final uniform collapse runs while the bucket budget is
// exceeded. At g < 1, if every count rounds away the scaled copy would
// have reset, so nothing happens, not even the collapse alignment.
func (s *Sketch) fuse(o *Sketch, g float64) {
	zero := o.zeroCnt
	if g != 1 {
		zero = int64(math.Round(float64(o.zeroCnt) * g))
		if zero == 0 && o.positive.addTo(nil, g, 0)+o.negative.addTo(nil, g, 0) == 0 {
			return
		}
	}
	before := s.count
	for s.collapses < o.collapses {
		s.uniformCollapse()
	}
	shift := s.collapses - o.collapses
	added := o.positive.addTo(s.positive, g, shift) + o.negative.addTo(s.negative, g, shift) + zero
	s.zeroCnt += zero
	s.count += added
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	for s.NonEmptyBuckets() > s.maxBuckets {
		s.uniformCollapse()
	}
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	s.assertCount("merge", before+added)
}

// mergeable returns other as a UDDSketch with the receiver's initial α
// and indexer, or the ErrIncompatible a merge of it must fail with.
// Stores of either kind merge into each other: they hold the same
// buckets.
func (s *Sketch) mergeable(other sketch.Sketch) (*Sketch, error) {
	o, ok := other.(*Sketch)
	if !ok {
		return nil, fmt.Errorf("%w: cannot merge %s into uddsketch", sketch.ErrIncompatible, other.Name())
	}
	if math.Abs(o.initAlpha-s.initAlpha) > 1e-15 {
		return nil, fmt.Errorf("%w: initial alpha mismatch %v vs %v", sketch.ErrIncompatible, s.initAlpha, o.initAlpha)
	}
	if o.indexer != s.indexer {
		// Different indexers bucket at different boundaries; adding their
		// counts index-by-index would silently corrupt both guarantees.
		return nil, fmt.Errorf("%w: indexer mismatch %d vs %d", sketch.ErrIncompatible, s.indexer, o.indexer)
	}
	return o, nil
}

// NonEmptyBuckets reports the live bucket count across both stores.
func (s *Sketch) NonEmptyBuckets() int { return s.positive.len() + s.negative.len() }

// Degrade implements sketch.Degrader: run one extra uniform collapse —
// exactly the sketch's native budget mechanism (Epicoco et al.),
// merging every adjacent bucket pair and deteriorating the guarantee
// α ← 2α/(1+α²). Merge already aligns differing collapse counts, so a
// degraded sketch stays mergeable with any sketch of the same initial
// α. Refused when fewer than 4 buckets are live (a collapse would
// degrade α while freeing almost nothing), and when the collapsed α
// would round to 1, which is no guarantee at all. α saturates within
// ~1,080 collapses from any α₀, so Degrade also keeps the collapse
// counter below its serialization bound of 4096.
//
// Unlike the budget collapse, which collapses in place and keeps each
// map's capacity for the refill that follows, Degrade rebuilds both
// stores sized to the surviving buckets: it is the governor's way to
// hand memory back, and a cleared map would release none. Freed bytes
// are measured by MemoryBytes, which sketch.FootprintOf charges: for a
// map the paper's per-bucket accounting, blind to map capacity, so only
// a rebuild makes the reported bytes actually leave the heap.
func (s *Sketch) Degrade() (int, error) {
	if s.NonEmptyBuckets() < 4 || !(2*s.alpha/(1+s.alpha*s.alpha) < 1) {
		return 0, sketch.ErrNotDegradable
	}
	before := s.MemoryBytes()
	s.positive = s.positive.rebuilt(1)
	s.negative = s.negative.rebuilt(1)
	s.collapsed()
	s.assertInvariants("degrade")
	freed := before - s.MemoryBytes()
	if freed < 0 {
		freed = 0
	}
	return freed, nil
}

// Trim implements sketch.Trimmer: it rebuilds map stores sized to their
// buckets (a dense store's array is already what MemoryBytes reports,
// so Trim leaves it). A map keeps the capacity of its fullest moment
// through in-place collapses, and ranging over it — as merging the
// sketch into another or querying it does — walks all of that
// capacity: a Pareto sketch filled with 100k values and left at 757
// buckets after 10 collapses merges ~1.2x faster trimmed. Trimming
// costs about one merge, so Trim a sketch once it has stopped growing
// and will be merged many times; buckets, answers and serialized bytes
// are unchanged.
func (s *Sketch) Trim() {
	s.positive = s.positive.rebuilt(0)
	s.negative = s.negative.rebuilt(0)
}

// AccuracyBound implements sketch.AccuracyBounder: the sketch's current
// relative accuracy α — the exact post-collapse guarantee, which grows
// with every Degrade and propagates through merges (the merged sketch
// carries the worse collapse count's α). It reads 1 once budget
// collapses have saturated α, which means no guarantee (see New).
func (s *Sketch) AccuracyBound() float64 { return s.alpha }

// MemoryBytes implements sketch.Sketch with each store's accounting:
// for the paper's map a map index, a bucket index and a count per
// bucket (Sec 4.3), for a dense store its allocated slots, plus fixed
// bookkeeping.
func (s *Sketch) MemoryBytes() int { return s.positive.bytes() + s.negative.bytes() }

// Reset implements sketch.Sketch. The stores stay of their kind.
func (s *Sketch) Reset() {
	dense := s.dense()
	s.positive = newStore(dense, 0)
	s.negative = newStore(dense, 0)
	s.reset()
}

// reset returns everything but the stores to the empty state.
func (s *Sketch) reset() {
	s.zeroCnt = 0
	s.count = 0
	s.collapses = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
	s.setAlpha(s.initAlpha)
	s.multiplier = initMultiplier(s.gamma)
}

// MarshalBinary implements encoding.BinaryMarshaler. The indexer kind
// rides in the high bit of the collapse counter (see indexerFlagCubic)
// so that envelopes written before the fast indexer existed decode as
// exact-log sketches without a version bump or a length change. The
// bytes do not depend on the store kind.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(64 + 16*s.NonEmptyBuckets())
	w.Header(sketch.TagUDDSketch)
	w.F64(s.initAlpha)
	w.U32(uint32(s.maxBuckets))
	w.U32(uint32(s.collapses) | indexerBits(s.indexer))
	w.I64(s.zeroCnt)
	w.I64(s.count)
	w.F64(s.min)
	w.F64(s.max)
	for _, st := range []store{s.positive, s.negative} {
		w.U32(uint32(st.len()))
		st.ascending(func(i int, c int64) bool {
			w.I64(int64(i))
			w.I64(c)
			return true
		})
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It decodes
// into the receiver's store kind (the map for a zero Sketch), so a
// decoded sketch resumes exactly as the one that was encoded. A dense
// receiver refuses an envelope whose bucket indices span more than
// maxDecodeSpan slots rather than allocate that span.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagUDDSketch); err != nil {
		return err
	}
	initAlpha := r.F64()
	maxBuckets := int(r.U32())
	rawCollapses := r.U32()
	// High bit of the collapse counter carries the indexer kind;
	// envelopes from before the fast indexer always have it clear, so
	// they decode as exact-log sketches and their bucket boundaries keep
	// meaning what they meant when written.
	indexer := indexerLog
	if rawCollapses&indexerFlagCubic != 0 {
		indexer = indexerCubic
	}
	collapses := int(rawCollapses &^ indexerFlagCubic)
	zeroCnt := r.I64()
	count := r.I64()
	minV := r.F64()
	maxV := r.F64()
	if r.Err() != nil {
		return r.Err()
	}
	// Bound decoded parameters: α saturates after ~60 collapses, and the
	// bucket budget never exceeds a few thousand in any valid sketch.
	if collapses < 0 || collapses > 4096 || maxBuckets > 1<<24 {
		return sketch.ErrCorrupt
	}
	if zeroCnt < 0 || count < 0 || math.IsNaN(minV) || math.IsNaN(maxV) {
		return sketch.ErrCorrupt
	}
	dense := s.dense()
	ns, err := newSketch(initAlpha, maxBuckets, dense)
	if err != nil {
		return sketch.ErrCorrupt
	}
	for i := 0; i < collapses; i++ {
		ns.setAlpha(2 * ns.alpha / (1 + ns.alpha*ns.alpha))
	}
	ns.collapses = collapses
	ns.zeroCnt = zeroCnt
	ns.count = count
	ns.min = minV
	ns.max = maxV
	readStore := func(st store) error {
		n := int(r.U32())
		lo, hi := math.MaxInt, math.MinInt
		for i := 0; i < n; i++ {
			idx := int(r.I64())
			c := r.I64()
			if r.Err() != nil {
				return r.Err()
			}
			// Valid sketches never hold empty or negative buckets.
			if c <= 0 {
				return sketch.ErrCorrupt
			}
			// The unsigned difference is exact even where hi−lo
			// overflows an int.
			lo, hi = min(lo, idx), max(hi, idx)
			if dense && uint64(hi-lo) >= maxDecodeSpan {
				return sketch.ErrCorrupt
			}
			st.add(idx, c)
		}
		return nil
	}
	if err := readStore(ns.positive); err != nil {
		return err
	}
	if err := readStore(ns.negative); err != nil {
		return err
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	ns.indexer = indexer
	// Ldexp is the k-fold exact halving the collapses performed.
	ns.multiplier = math.Ldexp(ns.multiplier, -collapses)
	// Structural validation: bucket sums must reproduce the serialized
	// count, the budget must hold, and a non-empty sketch needs ordered
	// bounds — anything else is corruption, not a decodable sketch.
	if total(ns.positive)+total(ns.negative)+ns.zeroCnt != ns.count {
		return sketch.ErrCorrupt
	}
	if ns.NonEmptyBuckets() > ns.maxBuckets {
		return sketch.ErrCorrupt
	}
	if ns.count > 0 && !(ns.min <= ns.max) {
		return sketch.ErrCorrupt
	}
	ns.assertInvariants("unmarshal")
	*s = *ns
	return nil
}
