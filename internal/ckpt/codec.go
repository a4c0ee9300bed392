package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt reports a checkpoint object or wire payload that fails
// its seal or does not decode exactly.
var ErrCorrupt = errors.New("ckpt: corrupt object")

// Enc appends primitive values in the little-endian layout shared by
// the checkpoint objects and the dist wire frames.
type Enc struct{ B []byte }

func (w *Enc) U8(v uint8) { w.B = append(w.B, v) }
func (w *Enc) U32(v uint32) {
	w.B = binary.LittleEndian.AppendUint32(w.B, v)
}
func (w *Enc) U64(v uint64) {
	w.B = binary.LittleEndian.AppendUint64(w.B, v)
}
func (w *Enc) F64(v float64) { w.U64(math.Float64bits(v)) }
func (w *Enc) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}
func (w *Enc) Str(s string) {
	w.U32(uint32(len(s)))
	w.B = append(w.B, s...)
}
func (w *Enc) I32s(v []int32) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.U32(uint32(x))
	}
}
func (w *Enc) F64s(v []float64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.F64(x)
	}
}
func (w *Enc) U64s(v []uint64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.U64(x)
	}
}
func (w *Enc) Strs(v []string) {
	w.U32(uint32(len(v)))
	for _, s := range v {
		w.Str(s)
	}
}

// Dec consumes primitive values with bounds checks everywhere: a
// truncated or hostile payload latches an error and yields zero
// values, it never panics and never allocates more than the remaining
// input could justify.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec decodes p.
func NewDec(p []byte) *Dec { return &Dec{b: p} }

// Err is the first decoding error, if any.
func (r *Dec) Err() error { return r.err }

// Fail latches a truncation error for the named field.
func (r *Dec) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, r.off)
	}
}

func (r *Dec) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.Fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *Dec) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.Fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *Dec) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.Fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *Dec) F64() float64   { return math.Float64frombits(r.U64()) }
func (r *Dec) Bool() bool     { return r.U8() != 0 }
func (r *Dec) Remaining() int { return len(r.b) - r.off }

// Bytes returns a copy of the next n raw bytes.
func (r *Dec) Bytes(n uint32) []byte {
	if r.err != nil || int(n) > r.Remaining() {
		r.Fail("bytes")
		return nil
	}
	out := append([]byte(nil), r.b[r.off:r.off+int(n)]...)
	r.off += int(n)
	return out
}

func (r *Dec) Str() string {
	n := r.U32()
	if r.err != nil || int(n) > r.Remaining() {
		r.Fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *Dec) I32s() []int32 {
	n := r.U32()
	if r.err != nil || int(n) > r.Remaining()/4 {
		r.Fail("[]int32")
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.b[r.off:]))
		r.off += 4
	}
	return out
}

func (r *Dec) F64s() []float64 {
	n := r.U32()
	if r.err != nil || int(n) > r.Remaining()/8 {
		r.Fail("[]float64")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

func (r *Dec) U64s() []uint64 {
	n := r.U32()
	if r.err != nil || int(n) > r.Remaining()/8 {
		r.Fail("[]uint64")
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return out
}

func (r *Dec) Strs() []string {
	n := r.U32()
	// Each entry costs at least the 4-byte length prefix.
	if r.err != nil || int(n) > r.Remaining()/4+1 {
		r.Fail("[]string")
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		out = append(out, r.Str())
	}
	return out
}

// Finish rejects payloads with trailing garbage, so a payload either
// decodes exactly or not at all.
func (r *Dec) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b)-r.off)
	}
	return nil
}

// Aggs is a name-parallel aggregator value list. Names are sorted by
// the sender so identical state always serialises to identical bytes.
type Aggs struct {
	Names []string
	Vals  []float64
}

func (w *Enc) Aggs(a Aggs) {
	w.U32(uint32(len(a.Names)))
	for i, name := range a.Names {
		w.Str(name)
		w.F64(a.Vals[i])
	}
}

func (r *Dec) Aggs() Aggs {
	n := r.U32()
	// Each entry costs at least 12 bytes (empty name + f64).
	if r.err != nil || int(n) > r.Remaining()/12+1 {
		r.Fail("aggregator pairs")
		return Aggs{}
	}
	a := Aggs{Names: make([]string, 0, n), Vals: make([]float64, 0, n)}
	for i := uint32(0); i < n && r.err == nil; i++ {
		a.Names = append(a.Names, r.Str())
		a.Vals = append(a.Vals, r.F64())
	}
	return a
}
