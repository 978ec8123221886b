package memory

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"munin/internal/msg"
)

// diffFresh is Diff into fresh storage; nil when nothing differs.
func diffFresh(twin, cur []byte, joinGap int) []Span {
	spans, _ := Diff(nil, nil, twin, cur, joinGap)
	return spans
}

func TestDiffIdentical(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	if spans := diffFresh(a, append([]byte(nil), a...), 0); spans != nil {
		t.Fatalf("diff of identical = %v, want nil", spans)
	}
}

func TestDiffSingleByte(t *testing.T) {
	twin := []byte{0, 0, 0, 0}
	cur := []byte{0, 9, 0, 0}
	spans := diffFresh(twin, cur, 0)
	if len(spans) != 1 || spans[0].Off != 1 || !bytes.Equal(spans[0].Data, []byte{9}) {
		t.Fatalf("spans = %v", spans)
	}
}

func TestDiffMultipleRuns(t *testing.T) {
	twin := make([]byte, 10)
	cur := make([]byte, 10)
	cur[0], cur[1] = 1, 1
	cur[8], cur[9] = 2, 2
	spans := diffFresh(twin, cur, 0)
	if len(spans) != 2 {
		t.Fatalf("spans = %v, want 2 runs", spans)
	}
	if spans[0].Off != 0 || spans[1].Off != 8 {
		t.Fatalf("offsets = %d,%d", spans[0].Off, spans[1].Off)
	}
}

func TestDiffJoinGapMergesNearbyRuns(t *testing.T) {
	twin := make([]byte, 10)
	cur := make([]byte, 10)
	cur[0] = 1
	cur[3] = 1 // 2 equal bytes between runs
	if spans := diffFresh(twin, cur, 0); len(spans) != 2 {
		t.Fatalf("gap=0 spans = %v, want 2", spans)
	}
	spans := diffFresh(twin, cur, 4)
	if len(spans) != 1 {
		t.Fatalf("gap=4 spans = %v, want 1 merged", spans)
	}
	if spans[0].Off != 0 || spans[0].End() != 4 {
		t.Fatalf("merged span = %v", spans[0])
	}
}

func TestDiffLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	diffFresh([]byte{1}, []byte{1, 2}, 0)
}

func TestApplySpansReconstructs(t *testing.T) {
	// Property: for random twin/cur pairs and any joinGap,
	// apply(twin, diff(twin, cur)) == cur.
	f := func(seed int64, gap8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		twin := make([]byte, n)
		cur := make([]byte, n)
		rng.Read(twin)
		copy(cur, twin)
		// Mutate a random subset.
		for i := 0; i < n/4; i++ {
			cur[rng.Intn(max(n, 1))] = byte(rng.Int())
		}
		spans := diffFresh(twin, cur, int(gap8)%8)
		got := append([]byte(nil), twin...)
		ApplySpans(got, spans)
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApplySpansOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ApplySpans(make([]byte, 4), []Span{{Off: 3, Data: []byte{1, 2}}})
}

func TestSpanBytes(t *testing.T) {
	spans := []Span{{0, []byte{1, 2}}, {10, []byte{3}}}
	if got := SpanBytes(spans); got != 3 {
		t.Fatalf("SpanBytes = %d", got)
	}
	if SpanBytes(nil) != 0 {
		t.Fatal("SpanBytes(nil) != 0")
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	spans := []Span{{0, []byte{1}}, {100, []byte{2, 3, 4}}, {7, nil}}
	b := msg.NewBuilder(64)
	EncodeSpans(b, spans)
	got := DecodeSpans(msg.NewReader(b.Bytes()))
	if len(got) != len(spans) {
		t.Fatalf("got %v", got)
	}
	for i := range spans {
		if got[i].Off != spans[i].Off || !bytes.Equal(got[i].Data, spans[i].Data) {
			t.Fatalf("span %d: %v vs %v", i, got[i], spans[i])
		}
	}
}

func TestSpanCodecEmpty(t *testing.T) {
	b := msg.NewBuilder(8)
	EncodeSpans(b, nil)
	got := DecodeSpans(msg.NewReader(b.Bytes()))
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestSpanCodecCorrupt(t *testing.T) {
	if got := DecodeSpans(msg.NewReader([]byte{0xff, 0xff})); got != nil {
		t.Fatalf("corrupt decode = %v, want nil", got)
	}
}

func TestDiffProperty_SpansMinimalWithZeroGap(t *testing.T) {
	// With joinGap=0, every span byte must actually differ from the twin
	// at its position... except interior bytes folded by runs — with
	// gap 0 there is no folding, so all span bytes differ.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		twin := make([]byte, n)
		cur := make([]byte, n)
		rng.Read(twin)
		copy(cur, twin)
		for i := 0; i < n/3; i++ {
			p := rng.Intn(n)
			cur[p] ^= byte(rng.Intn(255) + 1)
		}
		for _, s := range diffFresh(twin, cur, 0) {
			for i, b := range s.Data {
				if twin[s.Off+i] == b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMakeTwinIsPrivate(t *testing.T) {
	a := []byte{1, 2, 3}
	tw := MakeTwin(a)
	a[0] = 9
	if tw[0] != 1 {
		t.Fatal("twin aliases original")
	}
}

func TestMakeTwinInto(t *testing.T) {
	scratch := make([]byte, 0, 16)
	a := []byte{1, 2, 3}
	tw := MakeTwinInto(scratch, a)
	a[0] = 9
	if !bytes.Equal(tw, []byte{1, 2, 3}) {
		t.Fatalf("twin = %v", tw)
	}
	if &tw[0] != &scratch[:1][0] {
		t.Fatal("MakeTwinInto did not reuse scratch storage")
	}
}

// TestDiffScratchEquivalence pins the pooled Diff (word-at-a-time equal
// scan into caller scratch) against a Diff into fresh storage across random inputs,
// lengths straddling the 8-byte word boundary, and all small joinGaps.
func TestDiffScratchEquivalence(t *testing.T) {
	f := func(seed int64, gap8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) // covers 0, sub-word, and multi-word sizes
		twin := make([]byte, n)
		cur := make([]byte, n)
		rng.Read(twin)
		copy(cur, twin)
		for i := 0; i < n/4; i++ {
			cur[rng.Intn(max(n, 1))] = byte(rng.Int())
		}
		gap := int(gap8) % 8
		want := diffFresh(twin, cur, gap)
		spans, buf := Diff(make([]Span, 0, 4), make([]byte, 0, 64), twin, cur, gap)
		if SpanBytes(spans) != len(buf) {
			return false
		}
		if len(spans) != len(want) {
			return false
		}
		for i := range want {
			if spans[i].Off != want[i].Off || !bytes.Equal(spans[i].Data, want[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffWordBoundaries hits the word-scan edges deterministically:
// mismatches at offsets around multiples of 8 and at the final byte.
func TestDiffWordBoundaries(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 64} {
		for _, at := range []int{0, n / 2, n - 1} {
			twin := make([]byte, n)
			cur := make([]byte, n)
			cur[at] = 0xAA
			spans := diffFresh(twin, cur, 0)
			if len(spans) != 1 || spans[0].Off != at || len(spans[0].Data) != 1 {
				t.Fatalf("n=%d at=%d: spans = %v", n, at, spans)
			}
		}
	}
}

// TestDiffScratchGrowthDoesNotCorruptSpans: when the byte scratch grows
// mid-diff, spans handed out before the growth must keep their bytes.
func TestDiffScratchGrowthDoesNotCorruptSpans(t *testing.T) {
	n := 256
	twin := make([]byte, n)
	cur := make([]byte, n)
	for i := 0; i < n; i += 16 {
		cur[i] = byte(i + 1)
	}
	// Tiny scratch forces repeated growth across the diff.
	spans, _ := Diff(nil, make([]byte, 0, 1), twin, cur, 0)
	got := make([]byte, n)
	ApplySpans(got, spans)
	if !bytes.Equal(got, cur) {
		t.Fatal("spans corrupted by scratch growth")
	}
}

// TestDiffScratchZeroAllocs pins the tentpole property at its root: a
// diff into presized scratch touches the heap zero times.
func TestDiffScratchZeroAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := 4096
	twin := make([]byte, n)
	cur := make([]byte, n)
	for i := 0; i < n; i += 256 {
		cur[i] = 0xCC
	}
	dst := make([]Span, 0, 64)
	buf := make([]byte, 0, n)
	allocs := testing.AllocsPerRun(100, func() {
		dst, buf = Diff(dst[:0], buf[:0], twin, cur, 8)
	})
	if allocs != 0 {
		t.Fatalf("Diff into scratch allocates %.1f/op, want 0", allocs)
	}
}

func TestEncodedSpansSizeExact(t *testing.T) {
	for _, spans := range [][]Span{
		nil,
		{{0, []byte{1}}},
		{{5, make([]byte, 200)}, {1000, nil}, {2000, make([]byte, 127)}, {3000, make([]byte, 128)}},
	} {
		b := msg.NewBuilder(16)
		EncodeSpans(b, spans)
		if got, want := EncodedSpansSize(spans), b.Len(); got != want {
			t.Fatalf("EncodedSpansSize(%v) = %d, encoded %d", spans, got, want)
		}
	}
}

func TestDecodeSpansHostileCount(t *testing.T) {
	// A count word claiming 2^31 spans in a 2-byte body must be rejected
	// before it can size any allocation.
	b := msg.NewBuilder(16)
	b.U32(1 << 31).U16(0)
	r := msg.NewReader(b.Bytes())
	if got := DecodeSpans(r); got != nil {
		t.Fatalf("hostile count decoded to %v", got)
	}
	if r.Err() == nil {
		t.Fatal("hostile count left reader error-free")
	}
}

func TestDecodeSpansIntoAppendsAndAliases(t *testing.T) {
	spans := []Span{{3, []byte{1, 2}}, {9, []byte{7}}}
	b := msg.NewBuilder(64)
	EncodeSpans(b, spans)

	dst := make([]Span, 0, 4)
	buf := make([]byte, 0, 16)
	dst, buf = DecodeSpansInto(dst, buf, msg.NewReader(b.Bytes()))
	if len(dst) != 2 || SpanBytes(dst) != len(buf) {
		t.Fatalf("dst=%v |buf|=%d", dst, len(buf))
	}
	// Spans must alias the scratch: mutating buf shows through.
	buf[0] ^= 0xFF
	if dst[0].Data[0] == 1 {
		t.Fatal("decoded span does not alias scratch buffer")
	}
}

func TestDecodeSpansIntoTruncatedRestoresInputs(t *testing.T) {
	spans := []Span{{0, []byte{1, 2, 3, 4}}}
	b := msg.NewBuilder(32)
	EncodeSpans(b, spans)
	enc := b.Bytes()

	dst := make([]Span, 0, 4)
	buf := make([]byte, 0, 16)
	r := msg.NewReader(enc[:len(enc)-1])
	dst, buf = DecodeSpansInto(dst, buf, r)
	if r.Err() == nil {
		t.Fatal("truncated payload decoded cleanly")
	}
	if len(dst) != 0 || len(buf) != 0 {
		t.Fatalf("truncated decode leaked partial results: dst=%v |buf|=%d", dst, len(buf))
	}
}

// TestDecodeSpansView: the spans decode in place — each aliases the
// payload — and a payload that is cut short anywhere, or runs on past
// its spans, is an error that leaves dst as it was.
func TestDecodeSpansView(t *testing.T) {
	spans := []Span{{3, []byte{1, 2}}, {9, []byte{7}}, {200, make([]byte, 300)}}
	b := msg.NewBuilder(512)
	EncodeSpans(b, spans)
	enc := b.Bytes()

	dst := append(make([]Span, 0, 8), Span{Off: 1})
	r := msg.NewReader(enc)
	dst = DecodeSpansView(dst, r)
	if r.Err() != nil || len(dst) != 4 || r.Remaining() != 0 {
		t.Fatalf("decoded %v (err %v, %d bytes left)", dst, r.Err(), r.Remaining())
	}
	for i, sp := range spans {
		if got := dst[1+i]; got.Off != sp.Off || !bytes.Equal(got.Data, sp.Data) {
			t.Fatalf("span %d = %v, want %v", i, got, sp)
		}
	}
	enc[len(enc)-1] ^= 0xFF // the last span's last byte
	if dst[3].Data[len(dst[3].Data)-1] == 0 {
		t.Fatal("decoded span does not alias the payload")
	}
	enc[len(enc)-1] ^= 0xFF

	r = msg.NewReader(append(append([]byte(nil), enc...), 0))
	if got := DecodeSpansView(dst[:1], r); r.Err() == nil || len(got) != 1 {
		t.Errorf("payload with a trailing byte: decoded %d spans, err %v", len(got), r.Err())
	}
	for n := 0; n < len(enc); n++ {
		r := msg.NewReader(enc[:n])
		if got := DecodeSpansView(dst[:1], r); r.Err() == nil || len(got) != 1 {
			t.Errorf("%d-byte prefix of a %d-byte payload: decoded %d spans, err %v", n, len(enc), len(got), r.Err())
		}
	}
}

func TestCloneSpansIndependent(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	spans := []Span{{0, src[:2]}, {8, src[2:]}}
	clone := CloneSpans(spans)
	src[0], src[2] = 0xEE, 0xEE
	if clone[0].Data[0] != 1 || clone[1].Data[0] != 3 {
		t.Fatal("clone aliases source storage")
	}
	if CloneSpans(nil) != nil {
		t.Fatal("CloneSpans(nil) != nil")
	}
}

func benchPair(n, stride int) (twin, cur []byte) {
	twin = make([]byte, n)
	cur = make([]byte, n)
	for i := range twin {
		twin[i] = byte(i)
	}
	copy(cur, twin)
	for i := 0; i < n; i += stride {
		cur[i] ^= 0xFF
	}
	return twin, cur
}

func BenchmarkDiffScratch(b *testing.B) {
	for _, bc := range []struct {
		name      string
		n, stride int
	}{
		{"4KiB-clean", 4096, 1 << 30},
		{"4KiB-sparse", 4096, 512},
		{"64KiB-sparse", 65536, 4096},
		{"64KiB-dense", 65536, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			twin, cur := benchPair(bc.n, bc.stride)
			dst := make([]Span, 0, 64)
			buf := make([]byte, 0, bc.n)
			b.SetBytes(int64(bc.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, buf = Diff(dst[:0], buf[:0], twin, cur, 8)
			}
		})
	}
}

func BenchmarkSpanEncode(b *testing.B) {
	twin, cur := benchPair(4096, 512)
	spans := diffFresh(twin, cur, 8)
	enc := msg.NewBuilder(EncodedSpansSize(spans))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Reset(enc.Bytes()[:0])
		EncodeSpans(enc, spans)
	}
}

func BenchmarkSpanDecodeInto(b *testing.B) {
	twin, cur := benchPair(4096, 512)
	spans := diffFresh(twin, cur, 8)
	enc := msg.NewBuilder(EncodedSpansSize(spans))
	EncodeSpans(enc, spans)
	wire := enc.Bytes()
	dst := make([]Span, 0, len(spans))
	buf := make([]byte, 0, SpanBytes(spans))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst, buf = DecodeSpansInto(dst[:0], buf[:0], msg.NewReader(wire))
	}
}
