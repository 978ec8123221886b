package msg

// Lease wire format: the take/renew request a reader sends its home and
// the grant the home answers with. The coherence layer's lease engine
// speaks these on kinds of its own in the KindCohBase range; the codec
// lives here with the other wire formats so the shapes are testable
// without a cluster and reusable by tooling that decodes captures.

// LeaseReq asks the home for a readable version of an object. Have/Ver
// carry the version already cached at the requester, letting the home
// answer a renewal with a tiny "unchanged" grant instead of the bytes.
// A first-time take sends Have=false.
type LeaseReq struct {
	Obj  uint32 // object ID
	Have bool   // requester holds a cached copy at Ver
	Ver  uint64 // version of that cached copy
}

// Encode packs the request.
func (q LeaseReq) Encode() []byte {
	return NewBuilder(16).U32(q.Obj).Bool(q.Have).U64(q.Ver).Bytes()
}

// DecodeLeaseReq unpacks a request.
func DecodeLeaseReq(p []byte) (LeaseReq, error) {
	r := NewReader(p)
	q := LeaseReq{Obj: r.U32(), Have: r.Bool(), Ver: r.U64()}
	return q, r.Err()
}

// LeaseGrant is the home's answer: the object's current version and —
// unless the requester's cached copy is already that version — the
// whole current contents. Unchanged grants carry no data at all, which
// is what makes lease renewal piggyback-cheap.
type LeaseGrant struct {
	Ver       uint64 // current version at the home
	Unchanged bool   // requester's cached copy is already current
	Data      []byte // full contents; nil when Unchanged
}

// Encode packs the grant.
func (g LeaseGrant) Encode() []byte {
	b := NewBuilder(g.Size())
	g.EncodeTo(b)
	return b.Bytes()
}

// Size returns the grant's exact encoded size, for callers that build
// it in place in a wire buffer (EncodeTo).
func (g LeaseGrant) Size() int {
	const fixed = 8 + 1 // version, unchanged flag
	if g.Unchanged {
		return fixed
	}
	return fixed + BytesNSize(len(g.Data))
}

// EncodeTo appends the grant to b.
func (g LeaseGrant) EncodeTo(b *Builder) {
	b.U64(g.Ver).Bool(g.Unchanged)
	if !g.Unchanged {
		b.BytesN(g.Data)
	}
}

// DecodeLeaseGrant unpacks a grant. Data aliases p.
func DecodeLeaseGrant(p []byte) (LeaseGrant, error) {
	r := NewReader(p)
	g := LeaseGrant{Ver: r.U64(), Unchanged: r.Bool()}
	if !g.Unchanged {
		g.Data = r.BytesN()
	}
	return g, r.Err()
}
