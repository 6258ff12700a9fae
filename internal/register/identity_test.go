package register_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"

	"spacebounds/internal/dsys"
	"spacebounds/internal/register"
	"spacebounds/internal/transport"
	"spacebounds/internal/wal"
)

// TestSocketAndLogCarryTheFlatEncoding: for every registered kind of all four
// providers, with short blocks and with long ones, the bytes a client's sender
// hands a real socket and the bytes the journal frames into a real log file
// are Envelope.AppendBinary of the flat Codec.Encode — so a peer or a replay
// of any build that wrote or reads the flat form interoperates with this one.
func TestSocketAndLogCarryTheFlatEncoding(t *testing.T) {
	const client, object = 11, 5
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := transport.Dial([]string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var node net.Conn // the client's one connection, accepted on first use
	defer func() {
		if node != nil {
			node.Close()
		}
	}()
	var br *bufio.Reader
	refusal, err := dsys.Response{Status: dsys.StatusObjectDown}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// sent runs a one-target round carrying rmw and returns the envelope bytes
	// that arrived at the node, which then refuses the request so that the
	// round ends.
	sent := func(rmw dsys.RMW) []byte {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = cli.InvokeRound(context.Background(), client, []int{object}, func(int) dsys.RMW { return rmw }, 1)
		}()
		if node == nil {
			if node, err = ln.Accept(); err != nil {
				t.Fatal(err)
			}
			br = bufio.NewReader(node)
		}
		var prefix [12]byte
		if _, err := io.ReadFull(br, prefix[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(prefix[:4])-8)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatal(err)
		}
		answer := binary.BigEndian.AppendUint32(nil, uint32(8+len(refusal)))
		answer = append(append(answer, prefix[4:]...), refusal...)
		if _, err := node.Write(answer); err != nil {
			t.Fatal(err)
		}
		<-done
		return body
	}

	dir := t.TempDir()
	journal, err := wal.Open(wal.Config{Dir: dir, SyncEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var logged [][]byte // what each record's envelope must be, in log order
	for _, kind := range register.CodecKinds() {
		c, _ := register.CodecByKind(kind)
		payloads := [][]byte{seedPayloads()[kind]}
		if long, ok := longPayloads()[kind]; ok {
			payloads = append(payloads, long)
		}
		for _, payload := range payloads {
			rmw, err := c.Decode(payload)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			flat := func(op dsys.OpID, rmw dsys.RMW) []byte {
				t.Helper()
				env, err := register.EncodeEnvelope(op, object, rmw)
				if err != nil {
					t.Fatal(err)
				}
				wire, err := env.AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				return wire
			}
			if got, want := sent(rmw), flat(dsys.OpID{Client: client}, rmw); !bytes.Equal(got, want) {
				t.Errorf("%s: the %d bytes on the socket are not AppendBinary of the flat encoding (%d bytes)", kind, len(got), len(want))
			}
			journal.RecordApply(object, rmw)
			if c.ReadOnly {
				continue
			}
			if trimmer, ok := rmw.(dsys.JournalTrimmer); ok {
				rmw = trimmer.JournalForm()
			}
			logged = append(logged, flat(dsys.OpID{}, rmw))
		}
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	segments, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segments) != 1 {
		t.Fatalf("log segments: %v, %v", segments, err)
	}
	log, err := os.ReadFile(segments[0])
	if err != nil {
		t.Fatal(err)
	}
	// A record is u32 len(body) | u32 crc | body, the body u8 type | u64 seq |
	// envelope.
	for i, want := range logged {
		if len(log) < 8 {
			t.Fatalf("the log ends after %d of %d records", i, len(logged))
		}
		body := log[8 : 8+binary.BigEndian.Uint32(log[:4])]
		log = log[8+len(body):]
		if !bytes.Equal(body[9:], want) {
			t.Errorf("record %d: the %d bytes journaled are not AppendBinary of the flat encoding (%d bytes)", i, len(body)-9, len(want))
		}
	}
	if len(log) != 0 || len(logged) < 8 {
		t.Errorf("%d records checked, %d bytes of log left over", len(logged), len(log))
	}
}
