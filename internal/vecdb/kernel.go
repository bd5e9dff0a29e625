package vecdb

// Scan kernels: the int8 kernels of the quantized hot path, and
// sparseDot, the exact scan over a row's nonzeros (at the end).
//
// The quantized path's asymmetric distance (float32 query vs int8
// stored codes) reduces every metric to one integer dot product per
// stored vector:
//
//	v̂[d] = offset + scale·code[d]            (per-vector affine dequant)
//	⟨q,v̂⟩ = qscale·scale·Σ qc[d]·code[d] + offset·Σ q[d]
//	‖q−v̂‖² = ‖q‖² − 2⟨q,v̂⟩ + ‖v‖²           (norms precomputed exactly)
//	cos(q,v̂) = ⟨q,v̂⟩ / (‖q‖·‖v‖)
//
// so dotInt8 below is the entire inner loop: int8 products accumulated
// in int32 lanes, manually unrolled 8 wide with the bounds checks
// hoisted by full-slice re-slicing. dotInt8Ref is the pure-Go scalar
// fallback; the kernel-equivalence test pins them to identical results
// on every length, including tails that are not a multiple of the
// unroll width.

// dotInt8 returns Σ a[i]·b[i] over int8 codes with int32 accumulation.
// Slices must be the same length; extra elements of b are ignored.
func dotInt8(a, b []int8) int32 {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	var acc0, acc1, acc2, acc3 int32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		// Full-slice expressions pin the bounds so the compiler checks
		// once per iteration instead of once per element.
		x := a[i : i+8 : i+8]
		y := b[i : i+8 : i+8]
		acc0 += int32(x[0])*int32(y[0]) + int32(x[4])*int32(y[4])
		acc1 += int32(x[1])*int32(y[1]) + int32(x[5])*int32(y[5])
		acc2 += int32(x[2])*int32(y[2]) + int32(x[6])*int32(y[6])
		acc3 += int32(x[3])*int32(y[3]) + int32(x[7])*int32(y[7])
	}
	var tail int32
	for ; i < len(a); i++ {
		tail += int32(a[i]) * int32(b[i])
	}
	return acc0 + acc1 + acc2 + acc3 + tail
}

// dotInt8Ref is the scalar reference implementation of dotInt8. Integer
// accumulation is exact, so the unrolled kernel must match it bit for
// bit on every input.
func dotInt8Ref(a, b []int8) int32 {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	var acc int32
	for i := range a {
		acc += int32(a[i]) * int32(b[i])
	}
	return acc
}

// l2Int8 returns Σ (a[i]−b[i])² over int8 codes with int32
// accumulation — the symmetric code-space distance, usable when both
// sides share quantization parameters (e.g. comparing two stored rows).
// The asymmetric query path derives L2 from dotInt8 and exact norms
// instead, which avoids quantizing the query twice.
func l2Int8(a, b []int8) int32 {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	var acc0, acc1, acc2, acc3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		d0 := int32(x[0]) - int32(y[0])
		d1 := int32(x[1]) - int32(y[1])
		d2 := int32(x[2]) - int32(y[2])
		d3 := int32(x[3]) - int32(y[3])
		acc0 += d0 * d0
		acc1 += d1 * d1
		acc2 += d2 * d2
		acc3 += d3 * d3
	}
	var tail int32
	for ; i < len(a); i++ {
		d := int32(a[i]) - int32(b[i])
		tail += d * d
	}
	return acc0 + acc1 + acc2 + acc3 + tail
}

// l2Int8Ref is the scalar reference implementation of l2Int8.
func l2Int8Ref(a, b []int8) int32 {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	var acc int32
	for i := range a {
		d := int32(a[i]) - int32(b[i])
		acc += d * d
	}
	return acc
}

// minMax returns the smallest and largest element of v; (0,0) when v is
// empty.
func minMax(v []float32) (mn, mx float32) {
	if len(v) == 0 {
		return 0, 0
	}
	mn, mx = v[0], v[0]
	for _, x := range v[1:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return mn, mx
}

// sparseEntry is one nonzero coordinate of a stored row's mirror.
type sparseEntry struct {
	idx int32
	val float32
}

// sparseDot returns Σ qd[e.idx]·e.val over a row's nonzeros in
// ascending index order, where qd[i] = float64(q[i]). For finite
// inputs it has the same bits as dotProduct(q, row): each float32
// product is exact in float64, so the row's skipped zeros would only
// have added ±0, and adding ±0 never changes a sum that starts at +0
// (round-to-nearest yields −0 only from −0 + −0, so the sum is never
// −0). Exact products also make an FMA-fused and an unfused loop agree.
func sparseDot(qd []float64, row []sparseEntry) float64 {
	var acc float64
	for _, e := range row {
		acc += qd[e.idx] * float64(e.val)
	}
	return acc
}
