package dsys

import (
	"errors"
	"fmt"
	"slices"
)

// Wire is how the controlled engine moves an RMW from its client to its base
// object, and an answer back: as the bytes the TCP transport carries. The
// codec registry (internal/register) supplies the one implementation and
// installs it from its package init, as its providers register their codecs
// (InstallWire): this package cannot import it. An RMW whose type has no codec
// — only tests build such types — crosses by pointer. A cluster makes a Wire
// of its own and calls it under its lock, one call at a time.
type Wire interface {
	// AppendRequest appends to dst the envelope that carries rmw to the global
	// object on behalf of op, byte for byte what the TCP client sends, and
	// reports whether rmw's kind is posted: its answer is never read. coded
	// is false, and dst comes back as it was, when rmw's type has no codec.
	AppendRequest(dst []byte, op OpID, object int, rmw RMW) (env []byte, posted, coded bool, err error)
	// DecodeRequest rebuilds the RMW an envelope carries, over the RMW of its
	// kind that last holds, and leaves the new one there; a nil last decodes
	// into a new RMW. The RMW's code blocks are views of env, and it says so:
	// its Apply copies what it stores.
	DecodeRequest(env []byte, last *[]RMW) (RMW, error)
	// Answer carries resp, what an Apply of sent's kind returned, back to the
	// client: it encodes resp as sent's codec does and decodes the bytes into
	// sent, where the kind's answers ride.
	Answer(sent RMW, resp any) (any, error)
}

// newWire makes the installed Wire. A cluster calls it once, when it is made.
var newWire func() Wire

// InstallWire sets how every controlled cluster made afterwards makes the
// Wire it delivers its RMWs and answers through. The codec registry calls it
// from its package init; with none installed every RMW crosses by pointer.
func InstallWire(fn func() Wire) { newWire = fn }

// ErrWireFault reports a controlled delivery that the wire could not carry
// faithfully: an RMW that could not be encoded or decoded, an answer that
// could not cross, or a decoded RMW whose code blocks are not the ones its
// channel was charged for at trigger (Definition 2).
var ErrWireFault = errors.New("dsys: wire fault")

// WireFault returns the first fault the cluster's wire met, or nil. The
// simulator fails a seed whose cluster reports one.
func (c *Cluster) WireFault() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wireFault
}

// faultLocked records err as the cluster's wire fault unless one is recorded
// already. Callers must hold c.mu.
func (c *Cluster) faultLocked(err error) {
	if c.wireFault == nil {
		c.wireFault = fmt.Errorf("%w at step %d: %v", ErrWireFault, c.steps, err)
	}
}

// A pending entry's first buffers hold envFloor bytes and refsFloor block
// refs: room for any RMW of a run of small values (the simulator's largest,
// an adaptive update that carries its replica of an 8-byte value at k = 2,
// is a 259-byte envelope with 3 blocks), so an entry that carried a read
// carries the next update without growing.
const (
	envFloor  = 512
	refsFloor = 4
)

// sendLocked is a trigger: it fills p, the pending entry of rmw, with what
// the channel carries — refs, the code blocks rmw lists, which Definition 2
// charges to the channel until delivery, and env, rmw encoded as its
// envelope — over the buffers p already holds. An RMW the wire cannot encode
// is kept by pointer instead. Callers must hold c.mu.
func (c *Cluster) sendLocked(p *pendingRMW, rmw RMW) {
	if p.refs == nil {
		p.env, p.refs = make([]byte, 0, envFloor), make([]BlockRef, 0, refsFloor)
	}
	p.refs = rmw.AppendBlocks(p.refs[:0])
	if c.wire != nil {
		env, posted, coded, err := c.wire.AppendRequest(p.env[:0], p.op, p.object, rmw)
		if err != nil {
			c.faultLocked(fmt.Errorf("encoding %T for object %d: %v", rmw, p.object, err))
		} else if coded {
			p.env, p.posted = env, posted
			return
		}
	}
	p.rmw = rmw
}

// receiveLocked is a delivery: it returns the RMW p carries, decoded over the
// last of its kind the object decoded, once it has checked that the RMW's code
// blocks are the ones the channel was charged for. A decoding failure is a
// fault, and the RMW is lost. Callers must hold c.mu.
func (c *Cluster) receiveLocked(p *pendingRMW) (RMW, bool) {
	if p.rmw != nil {
		return p.rmw, true
	}
	if n := len(c.objs()); len(c.decoded) < n {
		c.decoded = slices.Grow(c.decoded, n-len(c.decoded))[:n]
	}
	rmw, err := c.wire.DecodeRequest(p.env, &c.decoded[p.object])
	if err != nil {
		c.faultLocked(fmt.Errorf("decoding the RMW for object %d: %v", p.object, err))
		return nil, false
	}
	if c.walkBlocks = rmw.AppendBlocks(c.walkBlocks[:0]); !slices.Equal(c.walkBlocks, p.refs) {
		c.faultLocked(fmt.Errorf("the %T decoded for object %d carries blocks %v, its channel was charged %v", rmw, p.object, c.walkBlocks, p.refs))
	}
	return rmw, true
}

// answerLocked returns what the client reads of resp, the answer of the RMW p
// carried: resp itself for an RMW that crossed by pointer, nothing for a
// posted kind, and otherwise resp as it crosses the wire, into sent, the
// client's RMW. Callers must hold c.mu.
func (c *Cluster) answerLocked(p *pendingRMW, sent RMW, resp any) any {
	switch {
	case p.rmw != nil:
		return resp
	case p.posted:
		return nil
	}
	a, err := c.wire.Answer(sent, resp)
	if err != nil {
		c.faultLocked(fmt.Errorf("answering the %T for object %d: %v", sent, p.object, err))
		return nil
	}
	return a
}
