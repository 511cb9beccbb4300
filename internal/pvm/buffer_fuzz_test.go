package pvm

import (
	"bytes"
	"math"
	"testing"
)

// FuzzBufferRoundTrip packs values derived from the fuzz input in a
// fixed order and checks they unpack bit-identically: the wire format
// must be lossless for any value, including NaNs, negative lengths'
// worth of bytes, and empty strings.
func FuzzBufferRoundTrip(f *testing.F) {
	f.Add(int32(-1), int64(1<<40), math.Pi, "scope", []byte{0xFF, 0x00})
	f.Add(int32(0), int64(0), 0.0, "", []byte{})
	f.Add(int32(math.MinInt32), int64(math.MinInt64), math.Inf(-1), "a\x00b", []byte("payload"))
	f.Fuzz(func(t *testing.T, i32 int32, i64 int64, fl float64, s string, p []byte) {
		b := NewBuffer()
		b.PackInt32(i32).PackInt64(i64).PackFloat64(fl).PackString(s).PackBytes(p)
		b.PackInt64Slice([]int64{i64, i64 + 1})

		r := Wrap(b.Bytes())
		gi32, err := r.UnpackInt32()
		if err != nil || gi32 != i32 {
			t.Fatalf("int32: %v %v, want %v", gi32, err, i32)
		}
		gi64, err := r.UnpackInt64()
		if err != nil || gi64 != i64 {
			t.Fatalf("int64: %v %v, want %v", gi64, err, i64)
		}
		gfl, err := r.UnpackFloat64()
		if err != nil || math.Float64bits(gfl) != math.Float64bits(fl) {
			t.Fatalf("float64: %v %v, want %v", gfl, err, fl)
		}
		gs, err := r.UnpackString()
		if err != nil || gs != s {
			t.Fatalf("string: %q %v, want %q", gs, err, s)
		}
		gp, err := r.UnpackBytes()
		if err != nil || !bytes.Equal(gp, p) {
			t.Fatalf("bytes: %v %v, want %v", gp, err, p)
		}
		g64s, err := r.UnpackInt64Slice()
		if err != nil || len(g64s) != 2 || g64s[0] != i64 || g64s[1] != i64+1 {
			t.Fatalf("int64 slice: %v %v", g64s, err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left after unpacking everything", r.Remaining())
		}
	})
}

// FuzzUnpack feeds arbitrary bytes to every unpacker: corrupt frames —
// truncated bodies, wrong type codes, hostile length prefixes — must
// come back as errors, never panics or runaway allocations.
func FuzzUnpack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{codeInt32, 0, 0, 0})                          // truncated int32 body
	f.Add([]byte{codeBytes, 0xFF, 0xFF, 0xFF, 0xFF})           // 4G-1 length, no body
	f.Add([]byte{codeBytes, 0x80, 0x00, 0x00, 0x00, 1, 2, 3})  // >2^31 length
	f.Add([]byte{codeString, 0x00, 0x00, 0x00, 0x05, 'a'})     // short string
	f.Add(NewBuffer().PackInt64Slice([]int64{7}).Bytes()[:10]) // torn slice frame
	f.Add(NewBuffer().PackInt32(5).Bytes())
	f.Add(NewBuffer().PackString("x").PackFloat64(1.5).Bytes())
	f.Add([]byte{5, 0, 0, 0, 200}) // bytes code with a lying length
	f.Add([]byte{1, 2})            // truncated int32
	f.Fuzz(func(t *testing.T, data []byte) {
		unpackers := []func(*Buffer) error{
			func(b *Buffer) error { _, err := b.UnpackInt32(); return err },
			func(b *Buffer) error { _, err := b.UnpackInt64(); return err },
			func(b *Buffer) error { _, err := b.UnpackFloat64(); return err },
			func(b *Buffer) error { _, err := b.UnpackString(); return err },
			func(b *Buffer) error { _, err := b.UnpackBytes(); return err },
			func(b *Buffer) error { _, err := b.UnpackInt64Slice(); return err },
		}
		for _, unpack := range unpackers {
			b := Wrap(data)
			// Drain the frame; every step either consumes input or errors,
			// so this terminates.
			for b.Remaining() > 0 {
				if err := unpack(b); err != nil {
					break
				}
			}
		}
	})
}
