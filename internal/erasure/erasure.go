// Package erasure implements systematic (n, k) maximum-distance-separable
// erasure codes over GF(2^8): k data blocks are expanded with m = n-k parity
// blocks such that any k of the n blocks reconstruct the original data. Two
// constructions are provided, Reed-Solomon codes built from a Vandermonde
// matrix (the construction used by HDFS-RAID, which the paper's prototype
// builds on) and Cauchy Reed-Solomon codes.
package erasure

import (
	"errors"
	"fmt"
	"sync"

	"ear/internal/gf256"
)

// Scheme selects the generator-matrix construction for a Coder.
type Scheme int

const (
	// ReedSolomon is the systematic Vandermonde construction used by
	// HDFS-RAID.
	ReedSolomon Scheme = iota + 1
	// CauchyReedSolomon uses a Cauchy matrix for the parity rows.
	CauchyReedSolomon
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case ReedSolomon:
		return "reed-solomon"
	case CauchyReedSolomon:
		return "cauchy-reed-solomon"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Errors returned by the package.
var (
	// ErrInvalidParams indicates an unusable (n, k) pair.
	ErrInvalidParams = errors.New("erasure: invalid code parameters")
	// ErrTooFewBlocks indicates fewer than k blocks survive, so the
	// stripe is unrecoverable.
	ErrTooFewBlocks = errors.New("erasure: too few surviving blocks to reconstruct")
	// ErrShapeMismatch indicates block slices of inconsistent lengths.
	ErrShapeMismatch = errors.New("erasure: block length mismatch")
)

// maxInvCacheEntries bounds the decode-matrix cache. C(n, k) survivor
// patterns exist in principle; real clusters repair the same few patterns
// over and over, so a small bound holds the working set while capping memory.
const maxInvCacheEntries = 512

// Coder encodes and decodes one stripe geometry. It is safe for concurrent
// use: the generator state is immutable after construction and the
// inversion-matrix cache is internally synchronized.
type Coder struct {
	n, k   int
	scheme Scheme
	// gen is the full n x k systematic generator matrix: the top k rows are
	// the identity and the bottom n-k rows produce parity blocks.
	gen *gf256.Matrix
	// parity is the bottom (n-k) x k portion of gen.
	parity *gf256.Matrix
	// parityRows holds the parity coefficient rows contiguously so the
	// encode hot path never copies matrix rows.
	parityRows [][]byte

	// invMu guards invCache, the decode matrices keyed by survivor index
	// set: repeated degraded reads and repairs of the same erasure pattern
	// skip the O(k^3) Gauss-Jordan invert.
	invMu    sync.RWMutex
	invCache map[string]*gf256.Matrix
}

// New returns a Coder for an (n, k) code with the given scheme. It requires
// 0 < k < n <= 256.
func New(n, k int, scheme Scheme) (*Coder, error) {
	if k <= 0 || n <= k || n > 256 {
		return nil, fmt.Errorf("%w: (n, k) = (%d, %d)", ErrInvalidParams, n, k)
	}
	var parity *gf256.Matrix
	var err error
	switch scheme {
	case ReedSolomon:
		parity, err = systematicVandermondeParity(n, k)
	case CauchyReedSolomon:
		parity, err = gf256.Cauchy(n-k, k)
	default:
		return nil, fmt.Errorf("%w: unknown scheme %v", ErrInvalidParams, scheme)
	}
	if err != nil {
		return nil, fmt.Errorf("build parity matrix: %w", err)
	}
	id, err := gf256.Identity(k)
	if err != nil {
		return nil, err
	}
	rows := make([][]byte, 0, n)
	for r := 0; r < k; r++ {
		rows = append(rows, id.Row(r))
	}
	for r := 0; r < n-k; r++ {
		rows = append(rows, parity.Row(r))
	}
	gen, err := gf256.NewMatrixFromRows(rows)
	if err != nil {
		return nil, err
	}
	parityRows := make([][]byte, n-k)
	for r := range parityRows {
		parityRows[r] = parity.Row(r)
	}
	return &Coder{
		n: n, k: k, scheme: scheme, gen: gen, parity: parity,
		parityRows: parityRows,
		invCache:   make(map[string]*gf256.Matrix),
	}, nil
}

// systematicVandermondeParity derives the parity portion of a systematic
// generator from an n x k Vandermonde matrix V: multiplying V by the inverse
// of its top k x k square yields a systematic generator whose every k x k row
// subset remains invertible.
func systematicVandermondeParity(n, k int) (*gf256.Matrix, error) {
	v, err := gf256.Vandermonde(n, k)
	if err != nil {
		return nil, err
	}
	topRows := make([]int, k)
	for i := range topRows {
		topRows[i] = i
	}
	top, err := v.SelectRows(topRows)
	if err != nil {
		return nil, err
	}
	topInv, err := top.Invert()
	if err != nil {
		return nil, err
	}
	sys, err := v.Mul(topInv)
	if err != nil {
		return nil, err
	}
	return sys.SubMatrix(k, n, 0, k)
}

// N returns the stripe width (data + parity blocks).
func (c *Coder) N() int { return c.n }

// K returns the number of data blocks per stripe.
func (c *Coder) K() int { return c.k }

// M returns the number of parity blocks per stripe, n - k.
func (c *Coder) M() int { return c.n - c.k }

// Scheme returns the generator construction in use.
func (c *Coder) Scheme() Scheme { return c.scheme }

// GeneratorRow returns a copy of row i of the systematic generator matrix.
func (c *Coder) GeneratorRow(i int) ([]byte, error) {
	if i < 0 || i >= c.n {
		return nil, fmt.Errorf("%w: generator row %d of %d", ErrInvalidParams, i, c.n)
	}
	return c.gen.Row(i), nil
}

func checkShape(blocks [][]byte, want int) (int, error) {
	if len(blocks) != want {
		return 0, fmt.Errorf("%w: got %d blocks, want %d", ErrShapeMismatch, len(blocks), want)
	}
	size := len(blocks[0])
	for i, b := range blocks {
		if len(b) != size {
			return 0, fmt.Errorf("%w: block %d has %d bytes, block 0 has %d", ErrShapeMismatch, i, len(b), size)
		}
	}
	return size, nil
}

// Encode computes the m parity blocks for the given k data blocks. All data
// blocks must have equal length; the returned parity blocks have the same
// length. The data blocks are not modified.
func (c *Coder) Encode(data [][]byte) ([][]byte, error) {
	size, err := checkShape(data, c.k)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, c.M())
	backing := make([]byte, c.M()*size)
	for i := range parity {
		parity[i], backing = backing[:size:size], backing[size:]
	}
	if err := c.EncodeInto(data, parity); err != nil {
		return nil, err
	}
	return parity, nil
}

// EncodeInto computes the m parity blocks for the given k data blocks into
// the caller-provided parity buffers, allocating nothing: the zero-copy
// encode primitive for buffer-pooled hot paths. parity must hold exactly m
// blocks of the data blocks' common length; parity buffers must not alias
// data blocks. The data blocks are not modified.
func (c *Coder) EncodeInto(data, parity [][]byte) error {
	size, err := checkShape(data, c.k)
	if err != nil {
		return err
	}
	if len(parity) != c.M() {
		return fmt.Errorf("%w: got %d parity buffers, want %d", ErrShapeMismatch, len(parity), c.M())
	}
	for i, p := range parity {
		if len(p) != size {
			return fmt.Errorf("%w: parity buffer %d has %d bytes, data has %d", ErrShapeMismatch, i, len(p), size)
		}
	}
	for i := range parity {
		gf256.DotProduct(c.parityRows[i], data, parity[i])
	}
	return nil
}

// ParityRowView returns (without copying) row i of the parity coefficient
// matrix: k coefficients, one per data position. Callers must treat the row
// as immutable. The pipelined encoder distributes these rows to the replica
// holders so each hop can fold its local blocks into the partial parity
// sums with MulAddSlice.
func (c *Coder) ParityRowView(i int) ([]byte, error) {
	if i < 0 || i >= c.M() {
		return nil, fmt.Errorf("%w: parity row %d of %d", ErrInvalidParams, i, c.M())
	}
	return c.parityRows[i], nil
}

// EncodeStripe returns the complete stripe: the k data blocks (shared, not
// copied) followed by the m freshly computed parity blocks.
func (c *Coder) EncodeStripe(data [][]byte) ([][]byte, error) {
	parity, err := c.Encode(data)
	if err != nil {
		return nil, err
	}
	stripe := make([][]byte, 0, c.n)
	stripe = append(stripe, data...)
	stripe = append(stripe, parity...)
	return stripe, nil
}

// pickSurvivors chooses k surviving stripe indices deterministically
// (ascending, preferring data blocks since they need no matrix solve when
// all k survive) and gathers their blocks into the caller's slice.
func (c *Coder) pickSurvivors(present map[int][]byte, indices []int, blocks [][]byte) ([]int, [][]byte, error) {
	if len(present) < c.k {
		return nil, nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewBlocks, len(present), c.k)
	}
	indices = indices[:0]
	for i := 0; i < c.n && len(indices) < c.k; i++ {
		if _, ok := present[i]; ok {
			indices = append(indices, i)
		}
	}
	if len(indices) < c.k {
		return nil, nil, fmt.Errorf("%w: have %d valid indices, need %d", ErrTooFewBlocks, len(indices), c.k)
	}
	blocks = blocks[:0]
	for _, idx := range indices {
		blocks = append(blocks, present[idx])
	}
	return indices, blocks, nil
}

// decodeMatrix returns the inverse of the generator rows selected by the
// survivor indices, consulting the cache first. Concurrent repairs of the
// same erasure pattern share one invert; distinct patterns cache
// independently up to maxInvCacheEntries.
func (c *Coder) decodeMatrix(indices []int) (*gf256.Matrix, error) {
	keyBytes := make([]byte, len(indices))
	for i, idx := range indices {
		keyBytes[i] = byte(idx)
	}
	key := string(keyBytes)

	c.invMu.RLock()
	inv, ok := c.invCache[key]
	c.invMu.RUnlock()
	if ok {
		return inv, nil
	}

	sub, err := c.gen.SelectRows(indices)
	if err != nil {
		return nil, err
	}
	inv, err = sub.Invert()
	if err != nil {
		return nil, fmt.Errorf("invert decode matrix: %w", err)
	}

	c.invMu.Lock()
	if cached, ok := c.invCache[key]; ok {
		// A concurrent repair of the same pattern won the race; share its
		// matrix so every caller sees one canonical instance.
		inv = cached
	} else {
		if len(c.invCache) >= maxInvCacheEntries {
			for k := range c.invCache {
				delete(c.invCache, k)
				break
			}
		}
		c.invCache[key] = inv
	}
	c.invMu.Unlock()
	return inv, nil
}

// invCacheLen reports the number of cached decode matrices (for tests and
// pool telemetry).
func (c *Coder) invCacheLen() int {
	c.invMu.RLock()
	defer c.invMu.RUnlock()
	return len(c.invCache)
}

// Reconstruct recovers the original k data blocks from any k surviving
// blocks of the stripe. present maps stripe index (0..n-1, data first) to
// the surviving block content. It returns the k data blocks in order.
func (c *Coder) Reconstruct(present map[int][]byte) ([][]byte, error) {
	size := c.survivorBlockSize(present)
	out := make([][]byte, c.k)
	backing := make([]byte, c.k*size)
	for r := range out {
		out[r], backing = backing[:size:size], backing[size:]
	}
	if err := c.ReconstructInto(present, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReconstructInto recovers the original k data blocks from any k surviving
// blocks into the caller-provided buffers: the zero-copy decode primitive
// for buffer-pooled hot paths. out must hold k buffers of the survivors'
// common block length; out buffers must not alias survivor blocks. The
// decode matrix for the survivor pattern is cached, so repeated degraded
// reads of one erasure pattern skip the O(k^3) invert.
func (c *Coder) ReconstructInto(present map[int][]byte, out [][]byte) error {
	indexBuf := make([]int, 0, c.k)
	blockBuf := make([][]byte, 0, c.k)
	indices, blocks, err := c.pickSurvivors(present, indexBuf, blockBuf)
	if err != nil {
		return err
	}
	size, err := checkShape(blocks, c.k)
	if err != nil {
		return err
	}
	if len(out) != c.k {
		return fmt.Errorf("%w: got %d output buffers, want %d", ErrShapeMismatch, len(out), c.k)
	}
	for i, o := range out {
		if len(o) != size {
			return fmt.Errorf("%w: output buffer %d has %d bytes, blocks have %d", ErrShapeMismatch, i, len(o), size)
		}
	}

	allData := true
	for i, idx := range indices {
		if idx != i {
			allData = false
			break
		}
	}
	if allData {
		for i, b := range blocks {
			copy(out[i], b)
		}
		return nil
	}

	inv, err := c.decodeMatrix(indices)
	if err != nil {
		return err
	}
	for r := 0; r < c.k; r++ {
		gf256.DotProduct(inv.RowView(r), blocks, out[r])
	}
	return nil
}

// ReconstructBlock recovers a single stripe block (data or parity) by index
// from any k surviving blocks. This is the degraded-read / repair primitive:
// a node recovering block idx downloads k blocks and solves for it.
func (c *Coder) ReconstructBlock(present map[int][]byte, idx int) ([]byte, error) {
	if idx >= 0 && idx < c.n {
		if b, ok := present[idx]; ok {
			return append([]byte(nil), b...), nil
		}
	}
	out := make([]byte, c.survivorBlockSize(present))
	if err := c.ReconstructBlockInto(present, idx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// survivorBlockSize returns the length of the survivor block at the
// smallest stripe index — the first block pickSurvivors will select — so
// the allocating wrappers size their buffers consistently with the decode.
func (c *Coder) survivorBlockSize(present map[int][]byte) int {
	for i := 0; i < c.n; i++ {
		if b, ok := present[i]; ok {
			return len(b)
		}
	}
	return 0
}

// ReconstructBlockInto recovers a single stripe block (data or parity) by
// index into the caller-provided buffer. The recovery is a single fused dot
// product over the k survivor blocks: for a data block the coefficients are
// the matching row of the cached decode matrix, and for a parity block the
// parity row is folded through the decode matrix first (P·Inv), so no
// intermediate data-block buffers are materialized.
func (c *Coder) ReconstructBlockInto(present map[int][]byte, idx int, out []byte) error {
	if idx < 0 || idx >= c.n {
		return fmt.Errorf("%w: block index %d of %d", ErrInvalidParams, idx, c.n)
	}
	if b, ok := present[idx]; ok {
		if len(b) != len(out) {
			return fmt.Errorf("%w: output buffer has %d bytes, block has %d", ErrShapeMismatch, len(out), len(b))
		}
		copy(out, b)
		return nil
	}
	indexBuf := make([]int, 0, c.k)
	blockBuf := make([][]byte, 0, c.k)
	indices, blocks, err := c.pickSurvivors(present, indexBuf, blockBuf)
	if err != nil {
		return err
	}
	size, err := checkShape(blocks, c.k)
	if err != nil {
		return err
	}
	if len(out) != size {
		return fmt.Errorf("%w: output buffer has %d bytes, blocks have %d", ErrShapeMismatch, len(out), size)
	}

	var coeffBuf [256]byte
	coeffs := coeffBuf[:c.k]
	if err := c.decodeRowInto(indices, idx, coeffs); err != nil {
		return err
	}
	gf256.DotProduct(coeffs, blocks, out)
	return nil
}

// DecodeRow returns the GF(256) coefficients that express stripe block idx
// as a linear combination of k survivor blocks: content[idx] = sum over i
// of coeffs[i]*content[indices[i]]. indices must be k distinct stripe
// indices in ascending order (the order pickSurvivors produces). The matrix
// behind the coefficients comes from the inversion cache, so repeated
// repairs of one erasure pattern skip the O(k^3) solve. This is the
// chain repair's planning primitive: each hop of the repair chain
// multiplies its locally held survivors by their coefficients and folds
// them into one partial sum — distributing the exact dot product
// ReconstructBlockInto would compute centrally.
func (c *Coder) DecodeRow(indices []int, idx int) ([]byte, error) {
	if idx < 0 || idx >= c.n {
		return nil, fmt.Errorf("%w: block index %d of %d", ErrInvalidParams, idx, c.n)
	}
	if len(indices) != c.k {
		return nil, fmt.Errorf("%w: got %d survivor indices, want %d", ErrInvalidParams, len(indices), c.k)
	}
	coeffs := make([]byte, c.k)
	for i, sidx := range indices {
		if sidx < 0 || sidx >= c.n || (i > 0 && sidx <= indices[i-1]) {
			return nil, fmt.Errorf("%w: survivor indices must be ascending stripe indices, got %v", ErrInvalidParams, indices)
		}
		if sidx == idx {
			// The target is itself a survivor: the unit row selects it.
			coeffs[i] = 1
			return coeffs, nil
		}
	}
	if err := c.decodeRowInto(indices, idx, coeffs); err != nil {
		return nil, err
	}
	return coeffs, nil
}

// decodeRowInto fills coeffs (length k) with the decode coefficients for
// target idx, which must not appear among the ascending survivor indices.
// Shared by the central reconstruction dot product and the exported
// DecodeRow view.
func (c *Coder) decodeRowInto(indices []int, idx int, coeffs []byte) error {
	allData := true
	for i, sidx := range indices {
		if sidx != i {
			allData = false
			break
		}
	}
	if allData {
		// idx is not a survivor, so with survivors 0..k-1 it must be a
		// parity block: the generator's parity row is the decode row.
		copy(coeffs, c.parityRows[idx-c.k])
		return nil
	}
	inv, err := c.decodeMatrix(indices)
	if err != nil {
		return err
	}
	if idx < c.k {
		copy(coeffs, inv.RowView(idx))
		return nil
	}
	// Fold the parity row through the decode matrix: coeffs = P_row · Inv.
	prow := c.parityRows[idx-c.k]
	for j := 0; j < c.k; j++ {
		var acc byte
		for m := 0; m < c.k; m++ {
			acc ^= gf256.Mul(prow[m], inv.At(m, j))
		}
		coeffs[j] = acc
	}
	return nil
}

// Verify reports whether the given full stripe (k data followed by m parity
// blocks) is consistent: recomputing parity from the data yields the stored
// parity blocks.
func (c *Coder) Verify(stripe [][]byte) (bool, error) {
	if _, err := checkShape(stripe, c.n); err != nil {
		return false, err
	}
	parity, err := c.Encode(stripe[:c.k])
	if err != nil {
		return false, err
	}
	for i, p := range parity {
		stored := stripe[c.k+i]
		for j := range p {
			if p[j] != stored[j] {
				return false, nil
			}
		}
	}
	return true, nil
}
