package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randMatrix32Pair returns a random f64 matrix and its packed f32 form.
func randMatrix32Pair(rng *rand.Rand, rows, cols int, scale float64) (*Matrix, *Matrix32) {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = scale * (rng.Float64()*2 - 1)
	}
	return m, PackMatrix32(m)
}

func randVec32Pair(rng *rand.Rand, n int, scale float64) (Vector, Vector32) {
	v := NewVector(n)
	for i := range v {
		v[i] = scale * (rng.Float64()*2 - 1)
	}
	v32 := NewVector32(n)
	v32.FromF64(v)
	return v, v32
}

// checkF32VsF64 asserts |got−want| ≤ absTol + relTol·(Σ|terms| scale).
func checkF32VsF64(t *testing.T, ctx string, got float32, want, tol float64) {
	t.Helper()
	if diff := math.Abs(float64(got) - want); diff > tol {
		t.Fatalf("%s: got %v want %v (|diff| %.3g > tol %.3g)", ctx, got, want, diff, tol)
	}
}

// f32Tol bounds the f32 accumulation error of a dot product whose exact
// value is want and whose absolute-term sum is absSum: input narrowing
// contributes ~2⁻²⁴ per term and the 4-accumulator sum grows error with
// n/4 roundings; 16 ulps of the term sum is a comfortable envelope.
func f32Tol(absSum float64) float64 {
	return 16 * absSum * (1.0 / (1 << 24)) * 4
}

func TestMulVecAdd32AgainstF64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(70), 1+rng.Intn(90)
		m, m32 := randMatrix32Pair(rng, rows, cols, 2)
		v, v32 := randVec32Pair(rng, cols, 3)
		want := NewVector(rows)
		m.MulVecAdd(want, v)
		got := NewVector32(rows)
		m32.MulVecAdd32(got, v32)
		for i := 0; i < rows; i++ {
			var absSum float64
			for j := 0; j < cols; j++ {
				absSum += math.Abs(m.At(i, j) * v[j])
			}
			checkF32VsF64(t, "MulVecAdd32", got[i], want[i], 1e-8+f32Tol(absSum))
		}
	}
}

func TestMulMatAdd32BitIdenticalToMulVecAdd32(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(50) // exercises the j-tail (cols % 4 != 0)
		B := 1 + rng.Intn(9)     // exercises the lane tail (B odd)
		_, m32 := randMatrix32Pair(rng, rows, cols, 1.5)
		x := NewMatrix32(B, cols)
		for i := range x.Data {
			x.Data[i] = float32(rng.Float64()*2 - 1)
		}
		batch := NewMatrix32(B, rows)
		for i := range batch.Data {
			batch.Data[i] = float32(rng.NormFloat64())
		}
		seq := NewMatrix32(B, rows)
		copy(seq.Data, batch.Data)
		m32.MulMatAdd32(batch, x)
		for b := 0; b < B; b++ {
			m32.MulVecAdd32(seq.Row(b), x.Row(b))
		}
		for i, got := range batch.Data {
			if got != seq.Data[i] {
				t.Fatalf("trial %d (%dx%d B=%d): lane %d unit %d: batch %v != sequential %v",
					trial, rows, cols, B, i/rows, i%rows, got, seq.Data[i])
			}
		}
	}
}

func TestGather32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, m32 := randMatrix32Pair(rng, 32, 17, 2)
	want := NewVector(32)
	got := NewVector32(32)
	m.Col2GatherAdd(want, 3, 1, 16, 0.42)
	m32.Col2GatherAdd32(got, 3, 1, 16, 0.42)
	for i := range want {
		checkF32VsF64(t, "Col2GatherAdd32", got[i], want[i], 1e-6)
	}
	m.ColGatherAdd(want, 9, 1)
	m32.ColGatherAdd32(got, 9, 1)
	for i := range want {
		checkF32VsF64(t, "ColGatherAdd32", got[i], want[i], 2e-6)
	}
}

// TestQuantizeDequantizeRoundTrip is the property test of the int8 layout:
// every reconstructed weight must sit within half a quantization step of
// the original, per row.
func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(80)
		scale := math.Pow(10, rng.Float64()*4-2) // spans 1e-2 .. 1e2
		m, _ := randMatrix32Pair(rng, rows, cols, scale)
		if trial%7 == 0 {
			for j := 0; j < cols; j++ { // exercise the constant-row path
				m.Set(0, j, 0)
				if rows > 1 {
					m.Set(1, j, 0.25*scale)
				}
			}
		}
		q := QuantizeMatrixI8(m)
		d := q.Dequantize()
		for i := 0; i < rows; i++ {
			step := float64(q.Scale[i])
			for j := 0; j < cols; j++ {
				diff := math.Abs(d.At(i, j) - m.At(i, j))
				if diff > 0.5*step*1.0001+1e-12 {
					t.Fatalf("trial %d row %d col %d: |%v − %v| = %.3g exceeds step/2 = %.3g",
						trial, i, j, d.At(i, j), m.At(i, j), diff, 0.5*step)
				}
			}
		}
	}
}

func TestQuantizeVecI8Properties(t *testing.T) {
	// All-zero input is exact: scale 0, zero codes.
	zq := make([]int8, 5)
	s, sum := QuantizeVecI8(zq, NewVector32(5))
	if s != 0 || sum != 0 {
		t.Fatalf("zero vector: scale %v sum %d, want 0, 0", s, sum)
	}
	// The max-magnitude element maps to ±127 exactly.
	v := Vector32{0.5, -2, 1, 0}
	q := make([]int8, len(v))
	s, sum = QuantizeVecI8(q, v)
	if q[1] != -127 {
		t.Fatalf("max-magnitude element quantized to %d, want -127", q[1])
	}
	var wantSum int32
	for i, x := range v {
		re := float64(s) * float64(q[i])
		if math.Abs(re-float64(x)) > float64(s)/2+1e-9 {
			t.Fatalf("element %d: dequantized %v vs %v exceeds half step", i, re, x)
		}
		wantSum += int32(q[i])
	}
	if sum != wantSum {
		t.Fatalf("code sum %d, want %d", sum, wantSum)
	}
}

// i8MatVecTol bounds the error of one int8 matvec output element against
// the exact f64 product: half a weight step times Σ|x̂| plus half an input
// step times Σ|w|, with slack for f32 rounding of the dequant arithmetic.
func i8MatVecTol(wRow Vector, xhat []float64, wStep, xStep float64) float64 {
	var sumW, sumX float64
	for _, w := range wRow {
		sumW += math.Abs(w)
	}
	for _, x := range xhat {
		sumX += math.Abs(x)
	}
	return 1.05*(0.5*wStep*sumX+0.5*xStep*sumW) + 1e-4
}

func TestMulVecAddI8AgainstF64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(80)
		m, _ := randMatrix32Pair(rng, rows, cols, 1.2)
		q := QuantizeMatrixI8(m)
		v, v32 := randVec32Pair(rng, cols, 2)
		xq := make([]int8, cols)
		xs, xsum := QuantizeVecI8(xq, v32)
		got := NewVector32(rows)
		q.MulVecAddI8(got, xq, xs, xsum, nil)
		want := NewVector(rows)
		m.MulVecAdd(want, v)
		xhat := make([]float64, cols)
		for j := range xhat {
			xhat[j] = float64(xs) * float64(xq[j])
		}
		for i := 0; i < rows; i++ {
			tol := i8MatVecTol(m.Row(i), xhat, float64(q.Scale[i]), float64(xs))
			checkF32VsF64(t, "MulVecAddI8", got[i], want[i], tol)
		}
	}
}

func TestMulMatAddI8BitIdenticalToMulVecAddI8(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(50)
		B := 1 + rng.Intn(7)
		m, _ := randMatrix32Pair(rng, rows, cols, 1)
		q := QuantizeMatrixI8(m)
		xq := make([]int8, B*cols)
		scales := make([]float32, B)
		sums := make([]int32, B)
		for b := 0; b < B; b++ {
			_, v32 := randVec32Pair(rng, cols, 1.5)
			if b == 0 && trial%5 == 0 {
				for j := range v32 { // a zero lane must stay untouched
					v32[j] = 0
				}
			}
			scales[b], sums[b] = QuantizeVecI8(xq[b*cols:(b+1)*cols], v32)
		}
		batch := NewMatrix32(B, rows)
		for i := range batch.Data {
			batch.Data[i] = float32(rng.NormFloat64())
		}
		seq := NewMatrix32(B, rows)
		copy(seq.Data, batch.Data)
		q.MulMatAddI8(batch, xq, scales, sums, nil)
		for b := 0; b < B; b++ {
			q.MulVecAddI8(seq.Row(b), xq[b*cols:(b+1)*cols], scales[b], sums[b], nil)
		}
		for i, got := range batch.Data {
			if got != seq.Data[i] {
				t.Fatalf("trial %d: element %d: batch %v != sequential %v", trial, i, got, seq.Data[i])
			}
		}
	}
}

// FuzzMulVecAdd32 cross-checks the f32 matvec against the f64 reference on
// fuzz-chosen shapes and value scales with a per-element error bound.
func FuzzMulVecAdd32(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), float64(1))
	f.Add(int64(2), uint8(1), uint8(97), float64(50))
	f.Add(int64(3), uint8(81), uint8(3), float64(0.01))
	f.Fuzz(func(t *testing.T, seed int64, r8, c8 uint8, scale float64) {
		rows, cols := 1+int(r8)%96, 1+int(c8)%128
		if !(scale > 1e-6 && scale < 1e6) {
			scale = 1
		}
		rng := rand.New(rand.NewSource(seed))
		m, m32 := randMatrix32Pair(rng, rows, cols, scale)
		v, v32 := randVec32Pair(rng, cols, scale)
		want := NewVector(rows)
		m.MulVecAdd(want, v)
		got := NewVector32(rows)
		m32.MulVecAdd32(got, v32)
		for i := 0; i < rows; i++ {
			var absSum float64
			for j := 0; j < cols; j++ {
				absSum += math.Abs(m.At(i, j) * v[j])
			}
			checkF32VsF64(t, "fuzz MulVecAdd32", got[i], want[i], 1e-8+f32Tol(absSum))
		}
	})
}

// FuzzMulVecAdd64 is the differential fuzz of the f64 kernels against the
// rolled reference: on fuzz-chosen shapes, lane counts and value scales
// (wide enough to reach overflow, Inf−Inf NaNs and subnormals), MulVecAdd
// and MulMatAdd must match it bit for bit.
func FuzzMulVecAdd64(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(1), float64(1))
	f.Add(int64(2), uint8(130), uint8(33), uint8(3), float64(1))
	f.Add(int64(3), uint8(7), uint8(5), uint8(9), float64(1e-310))
	f.Add(int64(4), uint8(80), uint8(32), uint8(2), float64(1e200))
	f.Fuzz(func(t *testing.T, seed int64, r8, c8, b8 uint8, scale float64) {
		rows, cols, lanes := 1+int(r8)%160, 1+int(c8)%128, 1+int(b8)%9
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale == 0 {
			scale = 1
		}
		checkRolledBits(t, rand.New(rand.NewSource(seed)), rows, cols, lanes,
			func(rng *rand.Rand) float64 { return scale * rng.NormFloat64() })
	})
}

// FuzzQuantI8 fuzzes the int8 pipeline end to end: round-trip bound on the
// weights and the matvec error envelope against the f64 reference.
func FuzzQuantI8(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), float64(1))
	f.Add(int64(4), uint8(64), uint8(48), float64(4))
	f.Add(int64(9), uint8(1), uint8(1), float64(1e3))
	f.Fuzz(func(t *testing.T, seed int64, r8, c8 uint8, scale float64) {
		rows, cols := 1+int(r8)%96, 1+int(c8)%96
		if !(scale > 1e-6 && scale < 1e6) {
			scale = 1
		}
		rng := rand.New(rand.NewSource(seed))
		m, _ := randMatrix32Pair(rng, rows, cols, scale)
		q := QuantizeMatrixI8(m)
		d := q.Dequantize()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if diff := math.Abs(d.At(i, j) - m.At(i, j)); diff > 0.5*float64(q.Scale[i])*1.0001+1e-12 {
					t.Fatalf("round trip row %d col %d: diff %.3g > half step %.3g", i, j, diff, 0.5*float64(q.Scale[i]))
				}
			}
		}
		v, v32 := randVec32Pair(rng, cols, scale)
		xq := make([]int8, cols)
		xs, xsum := QuantizeVecI8(xq, v32)
		got := NewVector32(rows)
		q.MulVecAddI8(got, xq, xs, xsum, nil)
		want := NewVector(rows)
		m.MulVecAdd(want, v)
		xhat := make([]float64, cols)
		for j := range xhat {
			xhat[j] = float64(xs) * float64(xq[j])
		}
		for i := 0; i < rows; i++ {
			tol := i8MatVecTol(m.Row(i), xhat, float64(q.Scale[i]), float64(xs))
			// The f32 input narrowing itself costs up to |x|·2⁻²⁴ per term.
			var sumWX float64
			for j := 0; j < cols; j++ {
				sumWX += math.Abs(m.At(i, j) * v[j])
			}
			checkF32VsF64(t, "fuzz MulVecAddI8", got[i], want[i], tol+f32Tol(sumWX))
		}
	})
}
