package dhcp

import (
	"bytes"
	"testing"

	"cruz/internal/ether"
	"cruz/internal/gobmemo/gobmemotest"
	"cruz/internal/tcpip"
)

// everyMsg returns one message per MsgType, filled the way its sender
// fills it.
func everyMsg() []*Message {
	mac := ether.MAC{2, 0, 0, 1, 0, 1}
	ip := tcpip.Addr{10, 0, 2, 1}
	return []*Message{
		{Type: Discover, ClientMAC: mac, XID: 1},
		{Type: Offer, ClientMAC: mac, YourIP: ip, LeaseSecs: 60, XID: 1},
		{Type: Request, ClientMAC: mac, YourIP: ip, XID: 2},
		{Type: Ack, ClientMAC: mac, YourIP: ip, LeaseSecs: 60, XID: 2},
		{Type: Nak, ClientMAC: mac, LeaseSecs: 60, XID: 3},
	}
}

// TestCodecIsFreshGob: a datagram's size is its time on the simulated
// wire, so every message must encode to the bytes a fresh gob.Encoder
// writes.
func TestCodecIsFreshGob(t *testing.T) {
	gobmemotest.Identity(t, codec, everyMsg()...)
}

// TestHostileDatagramCannotPoisonTheCodec: servers and clients read
// datagrams through one codec, so a damaged or hostile datagram is
// dropped, and leaves no trace; so is a good message with a byte after it.
func TestHostileDatagramCannotPoisonTheCodec(t *testing.T) {
	good := everyMsg()[3]
	gobmemotest.Hostile(t, codec, good)
	for _, in := range gobmemotest.Inputs(t, good) {
		if _, err := decode(in.Bytes); (err == nil) != in.Valid {
			t.Errorf("%s: decode returns %v", in.Name, err)
		}
	}
	b, err := encode(good)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := decode(append(b, 0)); err == nil {
		t.Errorf("a datagram with a byte after its message decodes to %+v", m)
	}
}

// TestReaderMatchesGob holds decode to gob (gobmemotest.Reads) on every
// message.
func TestReaderMatchesGob(t *testing.T) {
	gobmemotest.Reads(t, encode, decode, everyMsg()...)
}

func encode(m *Message) ([]byte, error) {
	var b bytes.Buffer
	err := codec.Encode(&b, m)
	return b.Bytes(), err
}

// TestCodecConcurrent hammers the shared codec from several goroutines,
// the way parallel clusters in one process do.
func TestCodecConcurrent(t *testing.T) {
	gobmemotest.Hammer(t, codec, everyMsg()...)
}
