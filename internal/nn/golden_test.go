// The constants below are amd64 bits. The f64 matvec kernels round every
// product on every platform, but the rest of the model (gate updates,
// backprop, Adam) is plain Go arithmetic that arm64 and others may fuse
// into FMAs, which the language permits; amd64 does not fuse.

//go:build amd64

package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Golden values of a production-shape model (vocab 80, two 32-unit LSTM
// layers, gap input, seed 1) after goldenTrainSteps TrainWindow+Adam steps,
// recorded with the rolled single-accumulator matvec kernels. Any kernel
// rewrite must reproduce them exactly: the f64 contract is one sequential
// accumulator per output element, so trained weights, streamed scores and
// batched scores may not move by a single bit.
const (
	goldenTrainSteps  = 12
	goldenFingerprint = uint64(0x1f84481dea0e1e8)
	goldenStreamHash  = uint64(0xaf82438d32ca52d5)
	goldenBatchHash   = uint64(0x212e0745ce3de8c1)
)

// goldenModel returns the trained production-shape model and the token
// generator the golden hashes are taken over.
func goldenModel() (*SequenceModel, *rand.Rand) {
	const vocab = 80
	m := NewSequenceModel(SeqModelConfig{Vocab: vocab, Hidden: []int{32, 32}, UseGap: true, Seed: 1})
	opt := NewAdam(3e-3, 5)
	rng := rand.New(rand.NewSource(42))
	window := make([]Token, 25)
	for s := 0; s < goldenTrainSteps; s++ {
		for i := range window {
			window[i] = Token{ID: rng.Intn(vocab), Gap: rng.ExpFloat64() * 30}
		}
		m.TrainWindow(window)
		opt.Step(m.Params())
	}
	return m, rng
}

// bitsHash is FNV-1a over the exact bit patterns of every element fed in.
type bitsHash uint64

func newBitsHash() bitsHash { return 14695981039346656037 }

func (h *bitsHash) add(v []float64) {
	for _, x := range v {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			*h = (*h ^ bitsHash(b&0xff)) * 1099511628211
			b >>= 8
		}
	}
}

// TestGoldenProductionShapeBits pins the f64 engine's bits end to end at the
// serving shape: the trained weights (via Fingerprint), 200 streamed
// StepLogProbs outputs, and 200 lanes of StepLogProbsBatch at wave sizes
// 1..5 — the leftover-lane sizes every serving wave hits.
func TestGoldenProductionShapeBits(t *testing.T) {
	m, rng := goldenModel()
	vocab := m.Config().Vocab
	tok := func() Token { return Token{ID: rng.Intn(vocab + 4), Gap: rng.ExpFloat64() * 30} }

	st := m.NewStreamState()
	stream := newBitsHash()
	for i := 0; i < 200; i++ {
		stream.add(m.StepLogProbs(tok(), st))
	}

	const lanes = 5
	sts := make([]*StreamState, lanes)
	for b := range sts {
		sts[b] = m.NewStreamState()
	}
	var sc BatchScratch
	batch := newBitsHash()
	for done, B := 0, 1; done < 200; B = B%lanes + 1 {
		toks := make([]Token, B)
		for b := range toks {
			toks[b] = tok()
		}
		for _, lp := range m.StepLogProbsBatch(toks, sts[:B], &sc) {
			batch.add(lp)
		}
		done += B
	}

	if fp := m.Fingerprint(); fp != goldenFingerprint {
		t.Errorf("trained fingerprint %#x, golden %#x", fp, goldenFingerprint)
	}
	if h := uint64(stream); h != goldenStreamHash {
		t.Errorf("streamed StepLogProbs hash %#x, golden %#x", h, goldenStreamHash)
	}
	if h := uint64(batch); h != goldenBatchHash {
		t.Errorf("batched StepLogProbsBatch hash %#x, golden %#x", h, goldenBatchHash)
	}
}
