package mbpta

import "fmt"

// Stream is a streaming block-maxima accumulator over a contiguous range of
// a global sample sequence — the online form of BlockMaxima that a sharded
// campaign folds shard by shard instead of collecting every execution time
// first. The state for the range [Start, Start+N) is a pure function of the
// ordered samples of that range, and Merge of two adjacent ranges is
// defined to equal the fold over their concatenation bit for bit, so any
// bracketing of adjacent merges — one process, two shards, eight — yields
// the identical maxima vector, and therefore the identical Gumbel fit.
//
// Block boundaries are anchored to GLOBAL sample indices (block b covers
// indices [b·Block, (b+1)·Block)), not to the range's own offset. A range
// starting mid-block therefore buffers its first samples raw (Head) until
// the first aligned boundary, accumulates full aligned blocks into Maxima,
// and keeps the trailing partial block raw (Tail). Both raw buffers hold
// fewer than Block samples, so the state is O(N/Block), which is what turns
// a 10⁸-sample collect-then-fit into a shardable constant-memory fold.
type Stream struct {
	// Block is the block-maxima size (B).
	Block int `json:"block"`
	// Start is the global index of the range's first sample.
	Start int64 `json:"start"`
	// N is the number of samples folded in.
	N int64 `json:"n"`
	// Head holds the samples before the first globally aligned block
	// boundary, raw (len < Block; empty when Start is aligned).
	Head []float64 `json:"head,omitempty"`
	// Maxima are the maxima of the fully contained aligned blocks. A
	// trailing partial block (Tail) is excluded, matching BlockMaxima's
	// bias rule; for a range starting at index 0 the head is empty and
	// Maxima equals BlockMaxima(samples, Block) whenever at least two
	// blocks completed.
	Maxima []float64 `json:"maxima,omitempty"`
	// Tail holds the samples after the last aligned boundary, raw
	// (len < Block).
	Tail []float64 `json:"tail,omitempty"`
}

// NewStream returns an empty accumulator for the range starting at global
// sample index start, with block-maxima size block (> 0).
func NewStream(block int, start int64) (*Stream, error) {
	if block <= 0 {
		return nil, fmt.Errorf("mbpta: stream block size %d", block)
	}
	if start < 0 {
		return nil, fmt.Errorf("mbpta: stream start %d", start)
	}
	return &Stream{Block: block, Start: start}, nil
}

// headTarget is the number of leading samples that precede the first
// aligned boundary (0 when Start is aligned).
func (s *Stream) headTarget() int64 {
	b := int64(s.Block)
	return (b - s.Start%b) % b
}

// Add folds the next sample of the range.
func (s *Stream) Add(x float64) {
	if s.N < s.headTarget() {
		s.Head = append(s.Head, x)
		s.N++
		return
	}
	s.Tail = append(s.Tail, x)
	s.N++
	if len(s.Tail) == s.Block {
		m := s.Tail[0]
		for _, v := range s.Tail[1:] {
			if v > m {
				m = v
			}
		}
		s.Maxima = append(s.Maxima, m)
		s.Tail = s.Tail[:0]
	}
}

// Merge folds the adjacent range o into s: o must start exactly where s
// ends and share the block size. After Merge, s covers the concatenated
// range and equals the fold of every sample in order — o's head samples are
// literally replayed through Add (there are fewer than Block of them), and
// o's aligned maxima and tail are spliced over, which is sound precisely
// because block boundaries are global.
func (s *Stream) Merge(o *Stream) error {
	if o == nil {
		return fmt.Errorf("mbpta: merge of nil stream")
	}
	if o.Block != s.Block {
		return fmt.Errorf("mbpta: merge of block sizes %d and %d", s.Block, o.Block)
	}
	if o.Start != s.Start+s.N {
		return fmt.Errorf("mbpta: merge of non-adjacent ranges: [%d,%d) then [%d,%d)",
			s.Start, s.Start+s.N, o.Start, o.Start+o.N)
	}
	for _, x := range o.Head {
		s.Add(x)
	}
	if len(o.Maxima) > 0 || len(o.Tail) > 0 {
		// o's first aligned boundary has been reached, so s must sit exactly
		// on it now: its head target consumed and its tail empty.
		if s.N < s.headTarget() || len(s.Tail) != 0 {
			return fmt.Errorf("mbpta: merge state mismatch at global index %d", s.Start+s.N)
		}
		s.Maxima = append(s.Maxima, o.Maxima...)
		s.Tail = append(s.Tail[:0], o.Tail...)
		s.N += o.N - int64(len(o.Head))
	}
	return nil
}

// Analyze runs the fit pipeline on the accumulated maxima: Gumbel fit over
// Maxima. Unlike Analyze, the raw samples are gone, so the IID
// diagnostics cannot be recomputed here; sharded campaigns that need them
// run CheckIID on a retained sample subset. It errors with fewer than 10
// maxima, exactly like FitGumbel.
func (s *Stream) Analyze() (Gumbel, error) {
	return FitGumbel(s.Maxima)
}
