package memory

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkDirtyAgainstDiff is the dirty set's contract, checked against the
// mechanism it replaced: after any sequence of writes, the spans Take
// returns rebuild the final bytes from the initial copy, are sorted,
// disjoint and non-adjacent, carry the live bytes, cover every span a
// diff of the two copies reports, and leave the set empty. script drives
// the writes: each one consumes an offset, a length and a source of
// bytes, so the seeded test and the fuzz target share this body.
func checkDirtyAgainstDiff(t *testing.T, size int, script *rand.Rand, writes int) {
	t.Helper()
	before := make([]byte, size)
	script.Read(before)
	obj := append([]byte(nil), before...)
	var d Dirty
	for w := 0; w < writes; w++ {
		n := 1 + script.Intn(size) // 1 B .. the whole object
		if script.Intn(4) != 0 {
			n = 1 + script.Intn(min(size, 16)) // mostly word-sized, so runs stay scattered
		}
		off := script.Intn(size - n + 1)
		data := make([]byte, n)
		switch script.Intn(3) {
		case 0:
			script.Read(data)
		case 1:
			copy(data, obj[off:]) // a store that changes nothing
		default:
			copy(data, obj[off:])
			data[script.Intn(n)] ^= 0x5A // a store that changes one byte
		}
		wasEmpty := d.Empty()
		first := d.Write(obj, off, data)
		if !bytes.Equal(obj[off:off+n], data) {
			t.Fatalf("write %d: object holds %x at [%d,%d), want %x", w, obj[off:off+n], off, off+n, data)
		}
		if first != (wasEmpty && !d.Empty()) {
			t.Fatalf("write %d: first = %v, but the set went empty=%v -> empty=%v", w, first, wasEmpty, d.Empty())
		}
	}
	after := append([]byte(nil), obj...)

	diff, _ := Diff(nil, nil, before, after, 0)
	if !d.Empty() && !d.Touches([]Span{{Off: 0, Data: after}}) {
		t.Fatal("a non-empty set touches no byte of the whole object")
	}
	if len(diff) > 0 && !d.Touches(diff) {
		t.Fatal("the set touches none of the bytes that changed")
	}
	spans, buf := d.Take(nil, nil, obj)
	if !d.Empty() || d.Touches([]Span{{Off: 0, Data: after}}) {
		t.Fatal("Take left the set non-empty")
	}
	if again, _ := d.Take(nil, nil, obj); len(again) != 0 {
		t.Fatalf("a second Take returned %v", again)
	}
	if SpanBytes(spans) != len(buf) {
		t.Fatalf("spans carry %d bytes, buf holds %d", SpanBytes(spans), len(buf))
	}
	for i, s := range spans {
		if len(s.Data) == 0 || s.Off < 0 || s.End() > size {
			t.Fatalf("span %d = %v out of shape for size %d", i, s, size)
		}
		if i > 0 && s.Off <= spans[i-1].End() {
			t.Fatalf("spans %v and %v are unsorted, overlapping or adjacent", spans[i-1], s)
		}
		if !bytes.Equal(s.Data, after[s.Off:s.End()]) {
			t.Fatalf("span %v carries %x, the object holds %x", s, s.Data, after[s.Off:s.End()])
		}
	}
	rebuilt := append([]byte(nil), before...)
	ApplySpans(rebuilt, spans)
	if !bytes.Equal(rebuilt, after) {
		t.Fatal("spans applied to the initial copy do not give the final bytes")
	}
	for _, want := range diff {
		covered := false
		for _, s := range spans {
			covered = covered || (s.Off <= want.Off && want.End() <= s.End())
		}
		if !covered {
			t.Fatalf("changed bytes %v are in no span of %v", want, spans)
		}
	}
}

func TestDirtyProperty_SpansMatchWritesAndCoverDiff(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(300) // sub-word, word-straddling and multi-word bitmaps
		checkDirtyAgainstDiff(t, size, rng, rng.Intn(40))
	}
}

func FuzzDirty(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(8))
	f.Add(int64(2), uint16(1), uint8(3))
	f.Add(int64(3), uint16(129), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, writes uint8) {
		checkDirtyAgainstDiff(t, 1+int(size)%4096, rand.New(rand.NewSource(seed)), int(writes))
	})
}

// TestDirtyWriteTrimsUnchangedEnds is the set's semantics in three lines:
// an unchanged store adds nothing, a word store adds only the bytes of
// the word that differ, and bytes in the middle that happen to match are
// kept (one span, not two).
func TestDirtyWriteTrimsUnchangedEnds(t *testing.T) {
	obj := make([]byte, 32)
	var d Dirty
	if d.Write(obj, 8, make([]byte, 8)) || !d.Empty() {
		t.Fatal("a store of the bytes already there dirtied the object")
	}
	if !d.Write(obj, 8, []byte{0, 0, 0, 7, 0, 9, 0, 0}) {
		t.Fatal("first changing write did not report clean -> dirty")
	}
	if d.Write(obj, 0, []byte{1}) {
		t.Fatal("second changing write reported clean -> dirty")
	}
	spans, _ := d.Take(nil, nil, obj)
	if len(spans) != 2 || spans[0].Off != 0 || len(spans[0].Data) != 1 ||
		spans[1].Off != 11 || !bytes.Equal(spans[1].Data, []byte{7, 0, 9}) {
		t.Fatalf("spans = %v, want [0,1) and [11,14) carrying 07 00 09", spans)
	}
}

func TestDirtyTouches(t *testing.T) {
	obj := make([]byte, 200)
	var d Dirty
	if d.Touches([]Span{{0, make([]byte, 200)}}) {
		t.Fatal("an empty set touches something")
	}
	d.Write(obj, 60, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // [60,68), across a word boundary
	d.Write(obj, 130, []byte{9})
	for _, c := range []struct {
		off, n int
		want   bool
	}{
		{0, 60, false}, {59, 2, true}, {67, 1, true}, {68, 62, false},
		{68, 63, true}, {131, 69, false}, {130, 0, false}, {0, 200, true},
	} {
		if got := d.Touches([]Span{{c.off, make([]byte, c.n)}}); got != c.want {
			t.Errorf("Touches([%d,%d)) = %v, want %v", c.off, c.off+c.n, got, c.want)
		}
	}
	if !d.Touches([]Span{{0, make([]byte, 4)}, {130, make([]byte, 1)}}) {
		t.Error("a later span's overlap was missed")
	}
}

// TestDirtyAllocatesOnce pins the bitmap's lifetime: the first write
// allocates it, and no write or take afterwards allocates again.
func TestDirtyAllocatesOnce(t *testing.T) {
	obj := make([]byte, 4096)
	var d Dirty
	spans, buf := make([]Span, 0, 64), make([]byte, 0, 4096)
	v := byte(0)
	cycle := func() {
		v++
		for off := 0; off < len(obj); off += 256 {
			d.Write(obj, off, []byte{v, v, v})
		}
		spans, buf = d.Take(spans[:0], buf[:0], obj)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a write+take cycle after the first allocated %v times, want 0", allocs)
	}
	if len(spans) != 16 {
		t.Fatalf("%d spans, want 16", len(spans))
	}
}

// BenchmarkDirtyWrite is the cost a buffered write pays for the set: an
// eight-byte store at scattered offsets of a 4 KB object that is never
// flushed (the hit path's shape), against the bare copy.
func BenchmarkDirtyWrite(b *testing.B) {
	obj := make([]byte, 4096)
	var word [8]byte
	b.Run("set", func(b *testing.B) {
		var d Dirty
		for i := 0; i < b.N; i++ {
			word[7] = byte(i)
			d.Write(obj, (i*264)&4088, word[:])
		}
	})
	b.Run("copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			word[7] = byte(i)
			copy(obj[(i*264)&4088:], word[:])
		}
	})
}

// BenchmarkDirtyTake is the flush side: reading 8 and 512 runs off a 4 KB
// object's set (after re-dirtying it, which is timed too).
func BenchmarkDirtyTake(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride int
	}{{"4KiB-sparse", 512}, {"4KiB-dense", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			obj := make([]byte, 4096)
			var d Dirty
			spans, buf := make([]Span, 0, 512), make([]byte, 0, 4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(obj); off += bc.stride {
					d.Write(obj, off, []byte{byte(i + 1)})
				}
				spans, buf = d.Take(spans[:0], buf[:0], obj)
			}
		})
	}
}
