package memory

import (
	"encoding/binary"
	"math/bits"
)

// Dirty is the set of bytes of one object copy that this node's buffered
// writes have stored since the set was last taken. Write is the only way
// in — it stores the bytes and records them in one step — so a set bit
// always means "a local write put this byte here", whatever else has
// been applied to the copy since.
//
// The representation is one bit per byte: Size/8 bytes, allocated by the
// object's first buffered write and kept for the object's lifetime. A
// write sets its bits with two masks wherever it lands and however
// fragmented the set already is, and overlapping or touching writes merge
// by construction. (A sorted run list was measured and lost: an object
// that is written at scattered offsets and rarely flushed settles at
// about a hundred runs, and every write then pays a binary search.)
//
// The zero value is an empty set. A Dirty is not safe for concurrent use;
// the lock that guards the object's bytes guards it.
type Dirty struct {
	bits   []uint64 // bit i is set when byte i is in the set; nil until the first write
	lo, hi int      // every set bit lies in words [lo, hi); hi == 0 when the set is empty
}

// Empty reports whether no byte is in the set.
func (d *Dirty) Empty() bool { return d.hi == 0 }

// Write stores data at obj[off:] and adds the stored bytes to the set,
// reporting whether that made an empty set non-empty. Leading and trailing
// bytes of data that obj already holds are neither stored nor added: a
// store that changes nothing leaves the set alone and stays unsent, and a
// word store adds only the part of the word that differs.
func (d *Dirty) Write(obj []byte, off int, data []byte) (first bool) {
	dst := obj[off : off+len(data)]
	// Trim a word at a time; the XOR of two words locates their first and
	// last differing byte, so an eight-byte store never enters a byte loop.
	lo, hi := 0, len(data)
	for lo+8 <= hi {
		if x := binary.LittleEndian.Uint64(dst[lo:]) ^ binary.LittleEndian.Uint64(data[lo:]); x != 0 {
			lo += bits.TrailingZeros64(x) >> 3
			break
		}
		lo += 8
	}
	for lo < hi && dst[lo] == data[lo] {
		lo++
	}
	// A word that reaches below lo is fine: the bytes it adds are equal.
	for hi > lo && hi >= 8 {
		if x := binary.LittleEndian.Uint64(dst[hi-8:]) ^ binary.LittleEndian.Uint64(data[hi-8:]); x != 0 {
			hi -= bits.LeadingZeros64(x) >> 3
			break
		}
		hi -= 8
	}
	for hi > lo && dst[hi-1] == data[hi-1] {
		hi--
	}
	if lo == hi {
		return false
	}
	copy(dst[lo:hi], data[lo:hi])

	if d.bits == nil {
		d.bits = make([]uint64, (len(obj)+63)/64)
	}
	a, b := off+lo, off+hi-1 // first and last byte stored
	wa, wb := a>>6, b>>6
	ma, mb := ^uint64(0)<<(a&63), ^uint64(0)>>(63-(b&63))
	if wa == wb {
		d.bits[wa] |= ma & mb
	} else {
		d.bits[wa] |= ma
		for w := wa + 1; w < wb; w++ {
			d.bits[w] = ^uint64(0)
		}
		d.bits[wb] |= mb
	}
	first = d.hi == 0
	if first || wa < d.lo {
		d.lo = wa
	}
	d.hi = max(d.hi, wb+1)
	return first
}

// Take reads the set off as spans and empties it: one span per run of
// set bits — sorted, disjoint and never adjacent — appended to dst, each
// span's bytes copied from obj into buf (append-style, like
// DecodeSpansInto: the spans alias buf, and the caller owns both).
func (d *Dirty) Take(dst []Span, buf, obj []byte) ([]Span, []byte) {
	end := d.hi << 6
	for i := d.scan(d.lo<<6, end, 0); i < end; {
		j := d.scan(i, end, ^uint64(0))
		p := len(buf)
		buf = append(buf, obj[i:j]...)
		dst = append(dst, Span{Off: i, Data: buf[p:len(buf):len(buf)]})
		i = d.scan(j, end, 0)
	}
	clear(d.bits[d.lo:d.hi])
	d.lo, d.hi = 0, 0
	return dst, buf
}

// Touches reports whether any byte of spans is in the set.
func (d *Dirty) Touches(spans []Span) bool {
	for _, s := range spans {
		lo, hi := max(s.Off, d.lo<<6), min(s.End(), d.hi<<6)
		if d.scan(lo, hi, 0) < hi {
			return true
		}
	}
	return false
}

// scan returns the first position in [i, end) whose bit is set (flip 0)
// or clear (flip all ones), or end when there is none.
func (d *Dirty) scan(i, end int, flip uint64) int {
	for i < end {
		if w := (d.bits[i>>6] ^ flip) >> (i & 63); w != 0 {
			return min(i+bits.TrailingZeros64(w), end)
		}
		i = (i | 63) + 1
	}
	return end
}
