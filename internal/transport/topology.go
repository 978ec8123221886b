package transport

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"munin/internal/msg"
)

// ReconnectPolicy controls whether a MeshNetwork tries to revive a
// peer after its wire latched as failed. The zero value — disabled —
// preserves the original lifecycle: errPeerDown is permanent for the
// life of the network.
//
// With Enabled set, a latch is an outage instead of a death sentence:
// the mesh re-dials the peer in the background (Backoff between
// attempts, doubling up to one second, at most MaxAttempts tries) and
// also accepts a rejoin dial FROM the latched peer — the path a
// restarted process takes, since it holds no memory of the old pair.
// Either way the latch clears, the pair agrees on a fresh connection
// epoch in the hello handshake, and nothing is replayed: every send
// and call that failed during the outage already reported its error.
type ReconnectPolicy struct {
	// Enabled turns reconnect-after-latch on.
	Enabled bool `json:"enabled"`
	// MaxAttempts bounds this side's background re-dial attempts per
	// outage; 0 means unlimited (until the mesh closes or the peer
	// rejoins inbound).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Backoff is the initial delay before the first re-dial attempt,
	// doubling per attempt up to one second. 0 means the 50ms default.
	Backoff time.Duration `json:"backoff,omitempty"`
}

// Topology describes a multi-process cluster to a MeshNetwork: which
// node this process is, and where every node (including itself) can be
// reached. Node IDs must be dense, 0..Nodes()-1, exactly as in-process
// networks number their endpoints, so the layers above (vkernel,
// protocol home hashing) work unchanged across one process or many.
type Topology struct {
	// Self is this process's node ID.
	Self msg.NodeID `json:"self"`
	// Peers maps every node ID to its listen address (host:port).
	// Self's entry is the address this process binds.
	Peers map[msg.NodeID]string `json:"-"`
	// Reconnect is the opt-in reconnect-after-latch policy. The zero
	// value keeps errPeerDown permanent.
	Reconnect ReconnectPolicy `json:"reconnect"`
}

// topologyJSON is the on-disk form: {"self": 0, "peers": {"0": "127.0.0.1:7000", ...}}.
type topologyJSON struct {
	Self      msg.NodeID        `json:"self"`
	Peers     map[string]string `json:"peers"`
	Reconnect ReconnectPolicy   `json:"reconnect"`
}

// Nodes returns the cluster size.
func (t *Topology) Nodes() int { return len(t.Peers) }

// Addr returns node n's listen address.
func (t *Topology) Addr(n msg.NodeID) string { return t.Peers[n] }

// Validate checks the invariants a MeshNetwork relies on: at least one
// node, dense IDs 0..n-1, a non-empty address for every node, and a
// self ID that is one of the nodes.
func (t *Topology) Validate() error {
	if len(t.Peers) == 0 {
		return fmt.Errorf("transport: topology has no peers")
	}
	for i := 0; i < len(t.Peers); i++ {
		addr, ok := t.Peers[msg.NodeID(i)]
		if !ok {
			return fmt.Errorf("transport: topology peer IDs not dense: missing node %d (have %s)",
				i, t.peerIDs())
		}
		if strings.TrimSpace(addr) == "" {
			return fmt.Errorf("transport: topology node %d has an empty address", i)
		}
		host, port, found := strings.Cut(addr, ":")
		if !found || host == "" || port == "" {
			return fmt.Errorf("transport: topology node %d address %q is not host:port", i, addr)
		}
	}
	if int(t.Self) < 0 || int(t.Self) >= len(t.Peers) {
		return fmt.Errorf("transport: topology self %d not in 0..%d", t.Self, len(t.Peers)-1)
	}
	return nil
}

// peerIDs renders the declared IDs for error messages.
func (t *Topology) peerIDs() string {
	ids := make([]int, 0, len(t.Peers))
	for id := range t.Peers {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	return fmt.Sprint(ids)
}

// MarshalJSON implements json.Marshaler using the string-keyed form.
func (t Topology) MarshalJSON() ([]byte, error) {
	out := topologyJSON{Self: t.Self, Reconnect: t.Reconnect, Peers: make(map[string]string, len(t.Peers))}
	for id, addr := range t.Peers {
		out.Peers[strconv.Itoa(int(id))] = addr
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Topology) UnmarshalJSON(data []byte) error {
	var raw topologyJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("transport: topology: %w", err)
	}
	t.Self = raw.Self
	t.Reconnect = raw.Reconnect
	t.Peers = make(map[msg.NodeID]string, len(raw.Peers))
	for k, addr := range raw.Peers {
		id, err := strconv.Atoi(k)
		if err != nil || id < 0 {
			return fmt.Errorf("transport: topology peer key %q is not a node ID", k)
		}
		t.Peers[msg.NodeID(id)] = addr
	}
	return nil
}

// LoadTopology reads and validates a topology JSON file:
//
//	{"self": 1, "peers": {"0": "10.0.0.1:7000", "1": "10.0.0.2:7000"}}
func LoadTopology(path string) (Topology, error) {
	var t Topology
	data, err := os.ReadFile(path)
	if err != nil {
		return t, fmt.Errorf("transport: topology: %w", err)
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return t, fmt.Errorf("transport: topology %s: %w", path, err)
	}
	return t, t.Validate()
}

// ParsePeers builds a validated topology from the flag form used by
// munin-bench: a comma-separated "id=host:port" list plus the self ID,
// e.g. ParsePeers("0=127.0.0.1:7000,1=127.0.0.1:7001", 1).
func ParsePeers(spec string, self msg.NodeID) (Topology, error) {
	t := Topology{Self: self, Peers: make(map[msg.NodeID]string)}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idStr, addr, found := strings.Cut(part, "=")
		if !found {
			return t, fmt.Errorf("transport: peer entry %q is not id=host:port", part)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil || id < 0 {
			return t, fmt.Errorf("transport: peer entry %q: bad node ID", part)
		}
		if _, dup := t.Peers[msg.NodeID(id)]; dup {
			return t, fmt.Errorf("transport: peer entry %q: duplicate node %d", part, id)
		}
		t.Peers[msg.NodeID(id)] = strings.TrimSpace(addr)
	}
	return t, t.Validate()
}
