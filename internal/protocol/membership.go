package protocol

import (
	"munin/internal/msg"
	"munin/internal/transport"
)

// PeerGone prunes a cleanly departed member from this node's protocol
// state: the node is removed from every directory entry's copy set (so
// home-side update relays stop addressing it), it stops being any
// object's registered producer, and it is dropped from every cached
// producer-side consumer set. The runtime calls this when the transport
// reports a goodbye (transport.PeerGoneNotifier) — the departed peer
// took its copies with it, so relaying to it would only pay one failed
// send per update forever after.
//
// The callback ordering of the goodbye protocol makes this safe:
// OnPeerGone fires strictly after every frame the peer sent has been
// dispatched, so no diff or registration from the departed member is
// still in flight when the pruning runs. A relay that raced the
// departure and was already started is handled separately — the relay
// paths treat a peer-gone error (transport.PeerGoneOf) as a benign skip (see isGone).
//
// An ownership-protocol object (conventional/general-rw) the departed
// member still owned exclusively is reclaimed by the home: the home
// becomes owner of its own — possibly stale — copy, so survivors'
// reads and writes run the ownership protocol against the home instead
// of panicking in a fetch aimed at a member that no longer exists, and a
// reader whose fault had been forwarded to the member is told to ask the
// home again (refuseForwards).
// Like a lock abandoned by a departing owner (dlock.Service.PeerGone),
// unsynchronized bytes the owner held are lost with it; the reclaim
// keeps the failure local to that object's last unsynchronized writes.
//
// Counters: member.gone (departures observed), member.pruned_copies
// (copy-set entries removed), member.pruned_consumers (cached consumer
// entries removed), member.reclaimed_owner (exclusive ownerships taken
// back by the home).
func (n *Node) PeerGone(peer msg.NodeID) {
	copies, consumers, owners := n.prunePeer(peer)
	n.ctr.MemberPrunedCopies.Add(copies)
	n.ctr.MemberPrunedConsumers.Add(consumers)
	n.ctr.MemberReclaimedOwner.Add(owners)
	// Last: whoever waits for the departure to be counted finds the rest
	// of it counted too.
	n.ctr.MemberGone.Inc()
}

// PeerDown is the runtime's report that peer's wire died. The home
// awaits nothing from the owner of an object whose read fault it
// forwarded — the reader does, and its kernel knows only the home — so
// the home refuses every such fault it noted for peer, and the readers
// fail with a peer-down error (transport.PeerDownOf) instead of waiting for a
// reply that cannot come. Nothing is reclaimed: a peer that is down may
// be back (PeerRecovered), and until then its objects have no owner to
// ask.
func (n *Node) PeerDown(peer msg.NodeID) {
	n.objs.each(func(o *Obj) {
		if d := o.dir.Load(); d != nil {
			d.mu.Lock()
			n.refuseForwards(o, d, peer, nackOwnerDown)
			d.mu.Unlock()
		}
	})
}

// prunePeer removes peer from every directory entry's copy set,
// producer slot, and cached consumer set, and reclaims any exclusive
// ownership it held. It is the shared mechanism behind PeerGone (a
// clean departure took its copies with it) and PeerRecovered (a
// restarted incarnation comes back with empty state, so every record
// of its old copies is stale and must go before it re-primes lazily).
func (n *Node) prunePeer(peer msg.NodeID) (copies, consumers, owners int64) {
	n.objs.each(func(o *Obj) {
		if d := o.dir.Load(); d != nil {
			d.mu.Lock()
			if d.copyset[peer] {
				delete(d.copyset, peer)
				copies++
			}
			if d.producer == peer {
				d.producer = -1
			}
			if d.owner == peer {
				o.mu.Lock() // d.mu → o.mu is the established order
				if o.state == Invalid {
					o.state = Shared // serveable, though possibly stale
				}
				d.epoch++
				o.epoch, o.owns = d.epoch, true
				o.mu.Unlock()
				d.owner = n.id
				d.copyset[n.id] = true
				owners++
			}
			// Readers whose faults were forwarded to peer ask again and
			// find the home owning whatever peer owned.
			n.refuseForwards(o, d, peer, nackRetry)
			d.mu.Unlock()
		}
		o.mu.Lock()
		for j, c := range o.consumers {
			if c == peer {
				o.consumers = append(o.consumers[:j], o.consumers[j+1:]...)
				consumers++
				break
			}
		}
		o.mu.Unlock()
	})
	return copies, consumers, owners
}

// isGone reports whether err is a clean peer departure. Update relays
// and eager pushes treat it as a benign skip: the departed member's
// copy left with it, so there is nothing to keep coherent — unlike
// a peer-down error (transport.PeerDownOf), where the peer may still believe it holds a
// valid copy. The skip is counted (relay.gone) so a departure racing a
// flush stays observable.
func isGone(err error) bool {
	_, gone := transport.PeerGoneOf(err)
	return gone
}

// relayBenign reports whether a relay/push/invalidate error is benign:
// the cluster is shutting down, or the destination departed cleanly.
func (n *Node) relayBenign(err error) bool {
	if isShutdown(err) {
		return true
	}
	if isGone(err) {
		n.ctr.RelayGone.Inc()
		return true
	}
	return false
}
