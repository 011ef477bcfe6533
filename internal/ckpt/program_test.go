package ckpt

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cruz/internal/apps/kvstore"
	"cruz/internal/apps/slm"
	"cruz/internal/apps/stream"
	"cruz/internal/dhcp"
	"cruz/internal/kernel"
)

// The production programs are registered here too, so that the codec
// tests below cover every program type a cluster checkpoints, beside the
// test programs of this package.
func init() {
	for _, p := range []kernel.Program{&slm.Worker{}, &kvstore.Server{}, &kvstore.Client{},
		&stream.Sender{}, &stream.Receiver{}, &dhcp.Server{}, &dhcp.Client{}} {
		RegisterProgram(p)
	}
}

// freshProgram is the reference encoding of p: a new gob encoder for one
// progHolder, which is what capture wrote before programs had codecs.
func freshProgram(t testing.TB, p kernel.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&progHolder{P: p}); err != nil {
		t.Fatalf("reference encode of %T: %v", p, err)
	}
	return buf.Bytes()
}

// freshDecodeProgram is the reference decoding: a new gob decoder.
func freshDecodeProgram(b []byte) (kernel.Program, error) {
	var h progHolder
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&h)
	return h.P, err
}

// programValues returns, for every registered program type in
// registration order, its zero value and a value with every exported
// field filled.
func programValues(t testing.TB) [][2]kernel.Program {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var out [][2]kernel.Program
	for _, c := range programs {
		if c.typ.Kind() != reflect.Pointer {
			t.Fatalf("program type %v is not a pointer", c.typ)
		}
		full := reflect.New(c.typ).Elem()
		fill(t, full, rng)
		out = append(out, [2]kernel.Program{
			reflect.New(c.typ.Elem()).Interface().(kernel.Program),
			full.Interface().(kernel.Program),
		})
	}
	return out
}

// TestProgramEncodingsMatchFreshGob: for every registered program type,
// its zero value and a filled one encode to the bytes a fresh gob encoder
// writes for their progHolder, and decode to what a fresh decoder makes of
// those bytes. gob numbers types in the order a process first meets them,
// and a codec derives its prefix on its first use, so the test runs in two
// fresh processes: one meets each type first through its codec, the other
// through fresh encoders only, and the two must write the same bytes. Both
// encode an image head first and walk the programs against registration
// order, so a codec that met its types at any other moment than its own
// first use would show. (One that met them at registration, in every
// process alike, moves TestEncodingsMatchGoldenDigests' pinned bytes.)
func TestProgramEncodingsMatchFreshGob(t *testing.T) {
	mode, out := os.Getenv("CKPT_PROGRAM_FRESH"), os.Getenv("CKPT_PROGRAM_OUT")
	if mode == "" {
		var written [2][]byte
		for i, mode := range []string{"codec", "gob"} {
			path := filepath.Join(t.TempDir(), mode)
			cmd := exec.Command(os.Args[0], "-test.run=^TestProgramEncodingsMatchFreshGob$", "-test.count=1")
			cmd.Env = append(os.Environ(), "CKPT_PROGRAM_FRESH="+mode, "CKPT_PROGRAM_OUT="+path)
			if b, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("in a fresh process (%s): %v\n%s", mode, err, b)
			}
			var err error
			if written[i], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if n := strings.Count(string(written[0]), "\n"); n != 1+2*len(programs) {
			t.Fatalf("the codec process encoded %d values, want %d", n, 1+2*len(programs))
		}
		if !bytes.Equal(written[0], written[1]) {
			t.Fatalf("a process that meets the program types through their codecs writes other bytes than one using fresh encoders:\n%s\n%s", written[0], written[1])
		}
		return
	}
	var lines bytes.Buffer
	head, err := sampleImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&lines, "image %s\n", hex.EncodeToString(head))
	all := programValues(t)
	for i := len(all) - 1; i >= 0; i-- {
		for j, p := range all[i] {
			var b []byte
			switch mode {
			case "gob":
				b = freshProgram(t, p)
			case "codec":
				var err error
				if b, err = encodeProgram(p); err != nil {
					t.Fatalf("%T: %v", p, err)
				}
				if want := freshProgram(t, p); !bytes.Equal(b, want) {
					t.Errorf("%T value %d: the codec writes %d bytes, a fresh encoder %d, and they differ", p, j, len(b), len(want))
				}
				got, err := decodeProgram(b)
				ref, rerr := freshDecodeProgram(b)
				if err != nil || rerr != nil || !reflect.DeepEqual(got, ref) {
					t.Errorf("%T value %d: the codec decodes %+v (%v), a fresh decoder %+v (%v)", p, j, got, err, ref, rerr)
				}
			}
			fmt.Fprintf(&lines, "%d.%d %T %s\n", i, j, p, hex.EncodeToString(b))
		}
	}
	if err := os.WriteFile(out, lines.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// forwarder is a program whose state holds another program.
type forwarder struct{ Next kernel.Program }

func (f *forwarder) Step(ctx *kernel.ProcContext) kernel.StepResult { return f.Next.Step(ctx) }

// TestRegisterProgramRefusesInterfaces: gob would describe an
// interface-typed field's concrete type in the middle of the value, so
// such a program's state has no prefix to memoise, and RegisterProgram
// refuses it instead of keeping a second, per-call path for it.
func TestRegisterProgramRefusesInterfaces(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "forwarder.Next is interface-typed") {
			t.Fatalf("RegisterProgram(&forwarder{}) panics with %v", r)
		}
		if programFor(reflect.TypeOf(&forwarder{})) != nil {
			t.Fatal("the refused type has a codec")
		}
	}()
	RegisterProgram(&forwarder{})
}

// hostilePrograms returns saved program states a decoder must refuse,
// keyed by what is wrong with each, built from good encodings with fresh
// encoders. The first three are the encodings of values gob's own decoder
// accepts in more than one form.
func hostilePrograms(t testing.TB) map[string][]byte {
	t.Helper()
	client := freshProgram(t, &kvstore.Client{AwaitingGet: true, Seq: 0x7b})
	c := programFor(reflect.TypeOf(&kvstore.Client{}))
	if _, err := decodeProgram(client); err != nil { // derives c.prefix
		t.Fatal(err)
	}
	w := client[len(c.prefix)+1:]
	if client[len(c.prefix)] != byte(len(w)) || bytes.Count(w, []byte{0x7b}) != 1 {
		t.Fatal("the client's value is not where the test looks for it")
	}
	frame := func(prefix, w []byte) []byte { return append(appendUint(bytes.Clone(prefix), uint64(len(w))), w...) }
	edit := func(old, new []byte) []byte { return frame(c.prefix, bytes.Replace(w, old, new, 1)) }
	// AwaitingGet, true, is the field sent just before Seq.
	if !bytes.Contains(w, []byte{0x01, 0x01, 0x7b}) {
		t.Fatal("AwaitingGet not found before Seq")
	}
	worker := freshProgram(t, &slm.Worker{Rank: 3, Fault: "x"})
	wc := programFor(reflect.TypeOf(&slm.Worker{}))
	if _, err := decodeProgram(worker); err != nil {
		t.Fatal(err)
	}
	renamed := bytes.Clone(client)
	renamed[bytes.Index(renamed, []byte("kvstore.Client"))] = 'K'
	return map[string][]byte{
		"true-as-2":        edit([]byte{0x01, 0x01, 0x7b}, []byte{0x02, 0x01, 0x7b}),
		"wide-uint":        edit([]byte{0x7b}, []byte{0xff, 0x7b}),
		"zero-field-sent":  edit([]byte{0x01, 0x7b}, []byte{0x01, 0x7b, 0x01, 0x00}),
		"empty":            nil,
		"prefix-only":      bytes.Clone(c.prefix),
		"no-prefix":        client[len(c.prefix):],
		"one-byte-short":   client[:len(client)-1],
		"byte-after":       append(bytes.Clone(client), 0),
		"byte-after-value": frame(c.prefix, append(bytes.Clone(w), 0)),
		"length-overruns":  append(append(bytes.Clone(c.prefix), byte(len(w)+1)), w...),
		"another-prefix":   frame(wc.prefix, w),
		"unregistered":     renamed,
		"garbage":          bytes.Repeat([]byte{0xff}, 64),
		"value-of-another": frame(c.prefix, worker[len(wc.prefix)+1:]),
	}
}

// TestDecodeProgramRejectsHostile: each damaged state is an error, and
// the decoder, which every restore in the process shares, decodes a good
// state afterwards as before.
func TestDecodeProgramRejectsHostile(t *testing.T) {
	good := &kvstore.Client{Seq: 9, Fault: "f"}
	b := freshProgram(t, good)
	hostile := hostilePrograms(t)
	for _, name := range []string{"true-as-2", "wide-uint", "zero-field-sent"} {
		if _, err := freshDecodeProgram(hostile[name]); err != nil {
			t.Errorf("%s: a fresh gob decoder rejects it as well (%v), so it does not test the codec's own check", name, err)
		}
	}
	for name, in := range hostile {
		if p, err := decodeProgram(in); err == nil {
			t.Errorf("%s: decoded to %+v", name, p)
		}
		if p, err := decodeProgram(b); err != nil || !reflect.DeepEqual(p, good) {
			t.Errorf("after %s: the good state decodes to %+v, %v", name, p, err)
		}
	}
}

// TestDecodeProgramTakesEitherMapOrder: a map of several entries has as
// many encodings as orders of its entries, and the decoder, which accepts
// only what an encoder writes, takes each of them.
func TestDecodeProgramTakesEitherMapOrder(t *testing.T) {
	s := &kvstore.Server{Port: 7, Table: map[string][]byte{"a": {1}, "b": {2}, "c": {3}}}
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		b := freshProgram(t, s)
		seen[string(b)] = true
		if p, err := decodeProgram(b); err != nil || !reflect.DeepEqual(p, s) {
			t.Fatalf("decodes to %+v, %v", p, err)
		}
	}
	if len(seen) < 2 {
		t.Fatal("gob wrote the map in one order every time; the test is vacuous")
	}
}

// TestProgramCodecsConcurrent drives the program codecs from parallel
// goroutines, as clusters stepped in parallel tests do — every encode,
// good decode and hostile decode interleaved — and checks each result
// against references computed beforehand. Run it under the race detector.
func TestProgramCodecsConcurrent(t *testing.T) {
	type ref struct {
		p       kernel.Program
		bytes   []byte
		decoded kernel.Program // what a fresh decoder makes of bytes
	}
	var refs []ref
	for _, values := range programValues(t) {
		for _, p := range values {
			b := freshProgram(t, p)
			d, err := freshDecodeProgram(b)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref{p, b, d})
		}
	}
	var hostile [][]byte
	for _, b := range hostilePrograms(t) {
		hostile = append(hostile, b)
	}
	t.Run("goroutines", func(t *testing.T) {
		for g := 0; g < 8; g++ {
			g := g
			t.Run(fmt.Sprint(g), func(t *testing.T) {
				t.Parallel()
				for i := 0; i < 100; i++ {
					r := refs[(g+i)%len(refs)]
					if b, err := encodeProgram(r.p); err != nil || !bytes.Equal(b, r.bytes) {
						t.Fatalf("%T encodes to other bytes than a fresh encoder's (%v)", r.p, err)
					}
					if _, err := decodeProgram(hostile[(g+i)%len(hostile)]); err == nil {
						t.Fatal("a hostile state decoded")
					}
					if p, err := decodeProgram(r.bytes); err != nil || !reflect.DeepEqual(p, r.decoded) {
						t.Fatalf("%T decodes to %+v (%v), want %+v", r.p, p, err, r.decoded)
					}
				}
			})
		}
	})
}

// FuzzDecodeProgram: arbitrary bytes decode to a program or an error,
// never a panic; a decoded program re-encodes, through a fresh gob
// encoder, to the very bytes it was decoded from — up to the order of a
// map's entries, which gob does not fix — and the good states decode
// after them to what they always did, the decoders being shared by every
// restore in the process. The seeds are one encoding per registered
// program and the hostile states.
func FuzzDecodeProgram(f *testing.F) {
	var good [][]byte
	var want []kernel.Program
	for _, values := range programValues(f) {
		b := freshProgram(f, values[1])
		p, err := decodeProgram(b)
		if err != nil {
			f.Fatal(err)
		}
		good, want = append(good, b), append(want, p)
		f.Add(b)
	}
	for _, b := range hostilePrograms(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodeProgram(b)
		for i := range good {
			if q, err := decodeProgram(good[i]); err != nil || !reflect.DeepEqual(q, want[i]) {
				t.Fatalf("a good state decodes to %+v, %v", q, err)
			}
		}
		if err != nil {
			return
		}
		again := freshProgram(t, p)
		if bytes.Equal(again, b) {
			return
		}
		if !programFor(reflect.TypeOf(p)).hasMap || !permutes(again, b) {
			t.Fatalf("decoded %T re-encodes to %d other bytes than its %d", p, len(again), len(b))
		}
		if q, err := freshDecodeProgram(again); err != nil || !reflect.DeepEqual(q, p) {
			t.Fatalf("decoded %T re-encodes to bytes that decode to %+v, %v", p, q, err)
		}
	})
}

// TestAppendUintIsGobs: appendUint writes encoding/gob's unsigned
// integers, whose documentation gives 256 as FE 01 00.
func TestAppendUintIsGobs(t *testing.T) {
	for v, want := range map[uint64]string{0: "00", 127: "7f", 128: "ff80", 256: "fe0100", 1 << 31: "fc80000000", 1<<64 - 1: "f8ffffffffffffffff"} {
		if got := hex.EncodeToString(appendUint(nil, v)); got != want {
			t.Errorf("appendUint(%d) = %s, want %s", v, got, want)
		}
	}
}
