package kvstore

import (
	"bytes"
	"testing"
	"testing/quick"

	"cruz"
)

func init() {
	cruz.RegisterProgram(&Server{})
	cruz.RegisterProgram(&Client{})
}

func TestRequestEncodingRoundTrip(t *testing.T) {
	s := NewServer(0)
	req := EncodeRequest(OpSet, "hello", []byte("world"))
	resp, consumed := s.serveOne(req)
	if consumed != len(req) {
		t.Fatalf("consumed %d of %d", consumed, len(req))
	}
	if resp[0] != 'K' {
		t.Fatalf("set response = %q", resp)
	}
	get := EncodeRequest(OpGet, "hello", nil)
	resp, consumed = s.serveOne(get)
	if consumed != len(get) || resp[0] != 'K' || string(resp[5:]) != "world" {
		t.Fatalf("get response = %q (consumed %d)", resp, consumed)
	}
	miss := EncodeRequest(OpGet, "absent", nil)
	resp, _ = s.serveOne(miss)
	if resp[0] != 'N' {
		t.Fatalf("miss response = %q", resp)
	}
}

func TestPartialRequestsNotConsumed(t *testing.T) {
	s := NewServer(0)
	req := EncodeRequest(OpSet, "key", []byte("value"))
	for i := 0; i < len(req); i++ {
		if _, consumed := s.serveOne(req[:i]); consumed != 0 {
			t.Fatalf("prefix of %d bytes consumed %d", i, consumed)
		}
	}
	// Pipelined requests parse one at a time.
	double := append(append([]byte{}, req...), EncodeRequest(OpGet, "key", nil)...)
	_, c1 := s.serveOne(double)
	if c1 != len(req) {
		t.Fatalf("first consume = %d, want %d", c1, len(req))
	}
}

// Property: any op/key/value encodes to something the server parses back
// with full consumption and stores faithfully.
func TestPropertyEncodeParse(t *testing.T) {
	s := NewServer(0)
	f := func(key string, val []byte) bool {
		if len(key) > 60000 {
			key = key[:60000]
		}
		req := EncodeRequest(OpSet, key, val)
		_, consumed := s.serveOne(req)
		if consumed != len(req) {
			return false
		}
		return bytes.Equal(s.Table[key], val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func deploy(t *testing.T) (*cruz.Cluster, *cruz.Job, *Server, *Client) {
	t.Helper()
	cl, err := cruz.New(cruz.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	spod, err := cl.NewPod(0, "db")
	if err != nil {
		t.Fatal(err)
	}
	cpod, err := cl.NewPod(1, "app")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(0)
	if _, err := spod.Spawn("kvd", server); err != nil {
		t.Fatal(err)
	}
	client := NewClient(cruz.AddrPort{Addr: spod.IP(), Port: DefaultPort})
	if _, err := cpod.Spawn("kvc", client); err != nil {
		t.Fatal(err)
	}
	job, err := cl.DefineJob("kv", "db", "app")
	if err != nil {
		t.Fatal(err)
	}
	return cl, job, server, client
}

func TestClientServerWorkload(t *testing.T) {
	cl, _, server, client := deploy(t)
	cl.Run(500 * cruz.Millisecond)
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
	if client.Done == 0 || server.Ops == 0 {
		t.Fatalf("no progress: client=%d server=%d", client.Done, server.Ops)
	}
}

func TestDatabaseSurvivesCrashRestart(t *testing.T) {
	cl, job, _, _ := deploy(t)
	cl.Run(300 * cruz.Millisecond)
	if _, err := cl.Checkpoint(job, cruz.CheckpointOptions{}); err != nil {
		t.Fatal(err)
	}
	cl.Run(200 * cruz.Millisecond)
	cl.Pod("db").Destroy()
	cl.Pod("app").Destroy()
	if _, err := cl.Restart(job, 0); err != nil {
		t.Fatal(err)
	}
	server2 := cl.Pod("db").Process(1).Program().(*Server)
	client2 := cl.Pod("app").Process(1).Program().(*Client)
	opsAtRestart := client2.Done
	if len(server2.Table) == 0 {
		t.Fatal("restored database lost its table")
	}
	cl.Run(500 * cruz.Millisecond)
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
	if client2.Done <= opsAtRestart {
		t.Fatal("client made no progress after restart")
	}
}

func TestMultipleClients(t *testing.T) {
	cl, err := cruz.New(cruz.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	spod, _ := cl.NewPod(0, "db")
	server := NewServer(0)
	spod.Spawn("kvd", server)
	var clients []*Client
	for i := 0; i < 3; i++ {
		cpod, cerr := cl.NewPod(1+i%2, "app-"+string(rune('a'+i)))
		if cerr != nil {
			t.Fatal(cerr)
		}
		c := NewClient(cruz.AddrPort{Addr: spod.IP(), Port: DefaultPort})
		c.MaxOps = 50
		cpod.Spawn("kvc", c)
		clients = append(clients, c)
	}
	done := func() bool {
		for _, c := range clients {
			if c.Done < 50 {
				return false
			}
		}
		return true
	}
	if !cl.RunUntil(done, 10*cruz.Second) {
		t.Fatalf("clients stalled: %d %d %d", clients[0].Done, clients[1].Done, clients[2].Done)
	}
	if err := cl.Check(); err != nil {
		t.Fatal(err)
	}
	if server.Ops != 3*50*2 {
		t.Fatalf("server ops = %d, want 300", server.Ops)
	}
}
