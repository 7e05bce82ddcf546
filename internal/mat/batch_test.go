package mat

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMulVecAdd is the reference rolled kernel the blocked fast paths
// must reproduce bit for bit. The explicit float64 conversion rounds each
// product before the add, as the kernels do, so no platform may fuse the
// pair into an FMA on one side only.
func naiveMulVecAdd(m *Matrix, dst, v Vector) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += float64(x * v[j])
		}
		dst[i] += s
	}
}

// checkRolledBits runs MulVecAdd and MulMatAdd at lanes lanes over
// rows×cols weights and requires every output element to equal the rolled
// reference bit for bit.
func checkRolledBits(t *testing.T, rng *rand.Rand, rows, cols, lanes int, fill func(*rand.Rand) float64) {
	t.Helper()
	mk := func(r, c int) *Matrix {
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = fill(rng)
		}
		return m
	}
	w, x, dst := mk(rows, cols), mk(lanes, cols), mk(lanes, rows) // nonzero dst: the += must also agree
	want := dst.Clone()
	for b := 0; b < lanes; b++ {
		naiveMulVecAdd(w, want.Row(b), x.Row(b))
	}
	single := dst.Clone()
	for b := 0; b < lanes; b++ {
		w.MulVecAdd(single.Row(b), x.Row(b))
	}
	batch := dst.Clone()
	w.MulMatAdd(batch, x)
	for k, wv := range want.Data {
		bits := math.Float64bits(wv)
		if math.Float64bits(single.Data[k]) != bits || math.Float64bits(batch.Data[k]) != bits {
			t.Fatalf("%dx%d B=%d: lane %d row %d: MulVecAdd %v, MulMatAdd %v, rolled %v",
				rows, cols, lanes, k/rows, k%rows, single.Data[k], batch.Data[k], wv)
		}
	}
}

// TestKernelsBitIdenticalToRolledLoop is the f64 kernel contract: one
// sequential accumulator per output element, so blocking across rows and
// lanes may not move a bit. Shapes cover row counts that are not a multiple
// of the row block (130, 7, 5), the serving projections (128×81, 128×32,
// 80×32), and every lane count 1..9 around the 4-lane block.
func TestKernelsBitIdenticalToRolledLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, sh := range [][2]int{{130, 33}, {7, 5}, {5, 7}, {128, 32}, {80, 32}, {128, 81}, {1, 1}, {3, 9}, {4, 4}} {
		for lanes := 1; lanes <= 9; lanes++ {
			checkRolledBits(t, rng, sh[0], sh[1], lanes, (*rand.Rand).NormFloat64)
		}
	}
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestMulVecAddUnrollBitIdentical checks column counts 1..9 plus larger
// shapes at 17 rows (four 4-row blocks and one leftover row) against the
// rolled reference. Bit identity, not tolerance: blocking must not change
// any element's summation order.
func TestMulVecAddUnrollBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 128} {
		m := randMatrix(rng, 17, cols)
		v := randVector(rng, cols)
		got := randVector(rng, 17) // nonzero dst: the += must also agree
		want := got.Clone()
		m.MulVecAdd(got, v)
		naiveMulVecAdd(m, want, v)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("cols=%d row %d: %v != %v", cols, i, got[i], want[i])
			}
		}
	}
}

// TestTransMulVecAddUnrollBitIdentical checks the transposed kernel against
// a rolled reference across tail lengths, including zero entries in v
// (which the kernel skips).
func TestTransMulVecAddUnrollBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, cols := range []int{1, 3, 4, 7, 8, 33} {
		m := randMatrix(rng, 12, cols)
		v := randVector(rng, 12)
		v[3], v[7] = 0, 0
		got := randVector(rng, cols)
		want := got.Clone()
		m.TransMulVecAdd(got, v)
		for i := 0; i < m.Rows; i++ {
			a := v[i]
			if a == 0 {
				continue
			}
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j, x := range row {
				want[j] += a * x
			}
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("cols=%d col %d: %v != %v", cols, j, got[j], want[j])
			}
		}
	}
}

// TestMulMatAddBitIdenticalToMulVecAdd is the batched-kernel contract: one
// MulMatAdd over B lanes must equal B independent MulVecAdd calls bit for
// bit, for batch sizes spanning the shard worker's range.
func TestMulMatAddBitIdenticalToMulVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, B := range []int{1, 3, 8, 16} {
		w := randMatrix(rng, 24, 33)
		x := randMatrix(rng, B, 33)
		dst := randMatrix(rng, B, 24)
		want := dst.Clone()
		w.MulMatAdd(dst, x)
		for b := 0; b < B; b++ {
			w.MulVecAdd(want.Row(b), x.Row(b))
		}
		for i := range dst.Data {
			if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("B=%d element %d: %v != %v", B, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

// TestMulMatAddShapePanics pins the shape contract: mismatched lanes or
// widths must panic, not corrupt.
func TestMulMatAddShapePanics(t *testing.T) {
	w := NewMatrix(4, 5)
	for _, tc := range []struct {
		name   string
		dst, x *Matrix
	}{
		{"input cols", NewMatrix(2, 4), NewMatrix(2, 6)},
		{"output cols", NewMatrix(2, 3), NewMatrix(2, 5)},
		{"lanes", NewMatrix(3, 4), NewMatrix(2, 5)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s mismatch did not panic", tc.name)
				}
			}()
			w.MulMatAdd(tc.dst, tc.x)
		}()
	}
}

// BenchmarkMulVecAdd measures the single-lane kernel at the bottom layer's
// input projection (4H×In with H=32, vocab 80 + gap).
func BenchmarkMulVecAdd(b *testing.B) { benchMulVecAdd(b, 128, 81) }

// BenchmarkMulVecAdd128x32 is the recurrent and upper-layer projection of
// the serving model (4H×H, H=32).
func BenchmarkMulVecAdd128x32(b *testing.B) { benchMulVecAdd(b, 128, 32) }

// BenchmarkMulVecAdd80x32 is the serving model's output layer (vocab×H).
func BenchmarkMulVecAdd80x32(b *testing.B) { benchMulVecAdd(b, 80, 32) }

func benchMulVecAdd(b *testing.B, rows, cols int) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, rows, cols)
	v := randVector(rng, cols)
	dst := NewVector(rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MulVecAdd(dst, v)
	}
}

// BenchmarkMulMatAdd8 measures the batched kernel at 8 lanes against the
// same weights; compare ns/op per lane with BenchmarkMulVecAdd to see the
// cache win of reusing each weight row across the batch.
func BenchmarkMulMatAdd8(b *testing.B) { benchMulMatAdd(b, 128, 81, 8) }

// BenchmarkMulMatAdd1..3 are the lane counts serving waves actually carry
// (about 1.4 lanes per model call), at the recurrent projection shape.
func BenchmarkMulMatAdd1(b *testing.B) { benchMulMatAdd(b, 128, 32, 1) }
func BenchmarkMulMatAdd2(b *testing.B) { benchMulMatAdd(b, 128, 32, 2) }
func BenchmarkMulMatAdd3(b *testing.B) { benchMulMatAdd(b, 128, 32, 3) }

func benchMulMatAdd(b *testing.B, rows, cols, lanes int) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, rows, cols)
	x := randMatrix(rng, lanes, cols)
	dst := NewMatrix(lanes, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MulMatAdd(dst, x)
	}
}
