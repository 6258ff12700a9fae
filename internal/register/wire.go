package register

import (
	"fmt"
	"slices"

	"spacebounds/internal/dsys"
)

// Wire is dsys.Wire over the codec registry: the one place that turns an RMW
// into the bytes a TCP sender writes, and back, in process. The controlled
// engine delivers every RMW and answer through it, and transport.Loopback
// round-trips its rounds through it. This package installs it at init. A
// Wire keeps the writer it encodes with, so it serves one goroutine at a
// time: a cluster makes one for its coordinator, and a loopback round one of
// its own.
type Wire struct{ w WireWriter }

var _ dsys.Wire = (*Wire)(nil)

func init() { dsys.InstallWire(func() dsys.Wire { return new(Wire) }) }

// AppendRequest implements dsys.Wire: it appends the envelope WriteEnvelope
// gives the TCP sender, untraced.
func (x *Wire) AppendRequest(dst []byte, op dsys.OpID, object int, rmw dsys.RMW) ([]byte, bool, bool, error) {
	c, ok := CodecOf(rmw)
	if !ok {
		return dst, false, false, nil
	}
	_, n, err := c.RequestSize(&x.w, rmw)
	if err != nil {
		return dst, c.Posted, true, fmt.Errorf("%w: encoding %s: %v", ErrCodec, c.Kind, err)
	}
	env := dsys.Envelope{Op: op, Object: object, Kind: c.Kind}
	x.w.Reset(slices.Grow(dst, env.EncodedLen(n)), false)
	err = WriteEnvelope(&x.w, env, c, rmw, n)
	dst = x.w.Finish()
	x.w.Reset(nil, false)
	return dst, c.Posted, true, err
}

// DecodeRequest implements dsys.Wire: it decodes as a server connection does,
// over the RMW of the envelope's kind that last holds (Decoded).
func (*Wire) DecodeRequest(env []byte, last *[]dsys.RMW) (dsys.RMW, error) {
	e, err := dsys.UnmarshalEnvelope(env)
	if err != nil {
		return nil, err
	}
	c, ok := CodecByKind(e.Kind)
	if !ok {
		return nil, fmt.Errorf("%w: unknown RMW kind %q", ErrCodec, e.Kind)
	}
	return decodeRMW(c, e, (*Decoded)(last))
}

// Answer implements dsys.Wire: the answer's bytes are its own, exactly sized,
// as a TCP client's response frame is, so what the client decodes into sent
// stays valid for as long as it holds it.
func (x *Wire) Answer(sent dsys.RMW, resp any) (any, error) {
	c, ok := CodecOf(sent)
	if !ok {
		return nil, fmt.Errorf("%w: no codec for RMW type %T", ErrCodec, sent)
	}
	// The payload is measured and written as EncodeResp does, with the
	// Wire's writer.
	_, n, err := c.ResponseSize(&x.w, resp)
	var payload []byte
	if err == nil && n > 0 {
		x.w.Reset(make([]byte, 0, n), false)
		err = writePayload(&x.w, c.WriteResp, resp, n)
		payload = x.w.Finish()
		x.w.Reset(nil, false)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: encoding %s response: %v", ErrCodec, c.Kind, err)
	}
	a, err := c.DecodeResp(sent, payload)
	if err != nil {
		return nil, fmt.Errorf("%w: decoding %s response: %v", ErrCodec, c.Kind, err)
	}
	return a, nil
}
