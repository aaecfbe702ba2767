package launch

import (
	"encoding/gob"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gompi/internal/transport"
	"gompi/internal/transport/shmipc"
)

func TestCoordinateAndJoin(t *testing.T) {
	const n = 3
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coordDone := make(chan error, 1)
	go func() { coordDone <- Coordinate(ln, n) }()

	var wg sync.WaitGroup
	errs := make([]error, n)
	devs := make([]transport.Device, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d, err := NewDevice("tcp", JobSpec{Rank: r, Size: n, Coord: ln.Addr()})
			if err != nil {
				errs[r] = err
				return
			}
			devs[r] = d
		}(r)
	}
	wg.Wait()
	if err := <-coordDone; err != nil {
		t.Fatal(err)
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// The mesh works: a full exchange round.
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d := devs[r]
			for j := 0; j < n; j++ {
				if j != r {
					if err := d.Send(j, []byte(fmt.Sprintf("%d", r))); err != nil {
						errs[r] = err
						return
					}
				}
			}
			for j := 0; j < n-1; j++ {
				if _, err := d.Recv(); err != nil {
					errs[r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("mesh exchange rank %d: %v", r, err)
		}
	}
	for _, d := range devs {
		d.Close()
	}
}

func TestCoordinateRejectsBadRank(t *testing.T) {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- Coordinate(ln, 2) }()
	c, err := transport.Dial(ln.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := gob.NewEncoder(c).Encode(hello{Rank: 7, Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("coordinator accepted an out-of-range rank")
	}
}

func TestJoinSizeMismatch(t *testing.T) {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var h hello
		gob.NewDecoder(c).Decode(&h)                            //nolint:errcheck
		gob.NewEncoder(c).Encode(table{Addrs: []string{"one"}}) //nolint:errcheck
	}()
	if _, err := NewDevice("tcp", JobSpec{Rank: 0, Size: 3, Coord: ln.Addr()}); err == nil {
		t.Fatal("the mesh rendezvous accepted a short address table")
	}
}

// TestNewDeviceShm builds segment endpoints by name, the way a launched
// rank does, and checks what the probe refuses.
func TestNewDeviceShm(t *testing.T) {
	path := filepath.Join(t.TempDir(), shmipc.SegPrefix+"reg.seg")
	seg, err := shmipc.Create(path, []int{0, 1}, shmipc.Config{ArenaBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Unlink() //nolint:errcheck // best-effort test cleanup
	var devs [2]transport.Device
	for r, name := range []string{"shm", "auto"} { // a whole-world segment is what auto picks
		devs[r], err = NewDevice(name, JobSpec{Rank: r, Size: 2, Segment: path, SegmentRanks: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer devs[r].Close()
	}
	if err := devs[0].Send(1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	f, err := devs[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Data) != "hi" {
		t.Fatalf("got %q", f.Data)
	}
	f.Release()

	st := devs[0].DeviceStats()
	if len(st) != 1 || st[0].Name != "shm" || st[0].FramesSent != 1 {
		t.Fatalf("bad device stats: %+v", st)
	}

	for _, refuse := range []struct {
		name, want string
		spec       JobSpec
	}{
		{"shm", "launcher provided no shared segment", JobSpec{Rank: 0, Size: 2}},
		{"shm", "segment covers 2 of 4 ranks", JobSpec{Rank: 0, Size: 4, Segment: path, SegmentRanks: []int{0, 1}}},
		{"tcp", "no rendezvous coordinator", JobSpec{Rank: 0, Size: 2}},
		{"hybrid", "no rendezvous coordinator for the remote ranks", JobSpec{Rank: 0, Size: 4, Segment: path, SegmentRanks: []int{0, 1}}},
		{"faulty:hybrid", "no shared segment for the local island", JobSpec{Rank: 0, Size: 2}},
		{"auto", "no usable fabric", JobSpec{Rank: 0, Size: 2}},
		{"carrier-pigeon", "unknown device", JobSpec{Rank: 0, Size: 2}},
	} {
		if _, err := NewDevice(refuse.name, refuse.spec); err == nil || !strings.Contains(err.Error(), refuse.want) {
			t.Errorf("NewDevice(%q, %+v) = %v, want an error saying %q", refuse.name, refuse.spec, err, refuse.want)
		}
	}
}
