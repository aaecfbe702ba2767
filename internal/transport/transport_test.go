package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testFIFOPerPair(t *testing.T, devs []Device) {
	t.Helper()
	const n = 500
	var wg sync.WaitGroup
	// Every rank sends n numbered frames to every other rank.
	for i := range devs {
		wg.Add(1)
		go func(d Device) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				for j := range devs {
					if j == d.Rank() {
						continue
					}
					frame := []byte{byte(d.Rank()), byte(k >> 8), byte(k)}
					if err := d.Send(j, frame); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}
		}(devs[i])
	}
	// Every rank must observe per-sender ascending sequence numbers.
	for i := range devs {
		wg.Add(1)
		go func(d Device) {
			defer wg.Done()
			last := make(map[byte]int)
			for i := range last {
				_ = i
			}
			total := (len(devs) - 1) * n
			for c := 0; c < total; c++ {
				f, err := d.Recv()
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				src := f.Data[0]
				seq := int(f.Data[1])<<8 | int(f.Data[2])
				f.Release()
				if prev, ok := last[src]; ok && seq != prev+1 {
					t.Errorf("rank %d: from %d got seq %d after %d", d.Rank(), src, seq, prev)
					return
				}
				last[src] = seq
			}
		}(devs[i])
	}
	wg.Wait()
}

// TestJobFIFO floods a three-rank job from every rank at once, by
// reference and over the mesh.
func TestJobFIFO(t *testing.T) {
	tcp, err := NewLoopbackJob(3)
	if err != nil {
		t.Fatal(err)
	}
	for name, job := range map[string][]*Mux{"chan": NewShmJob(3, 0), "tcp": tcp} {
		t.Run(name, func(t *testing.T) {
			devs := make([]Device, len(job))
			for i, d := range job {
				devs[i] = d
				defer d.Close()
			}
			testFIFOPerPair(t, devs)
		})
	}
}

func TestTCPLargeFrame(t *testing.T) {
	devs, err := NewLoopbackJob(2)
	if err != nil {
		t.Fatal(err)
	}
	defer devs[0].Close()
	defer devs[1].Close()
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	go devs[0].Send(1, big) //nolint:errcheck // checked via received bytes
	got, err := devs[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, big) {
		t.Fatal("large frame corrupted")
	}
	got.Release()
}

func TestBadDestination(t *testing.T) {
	devs := NewShmJob(2, 0)
	defer devs[0].Close()
	defer devs[1].Close()
	if err := devs[0].Send(5, []byte("x")); err == nil {
		t.Fatal("out-of-range destination must error")
	}
	if err := devs[0].Send(-1, []byte("x")); err == nil {
		t.Fatal("negative destination must error")
	}
}

// TestMeshIgnoresStrangers: dial-ins that connect and never speak, or
// speak garbage, beside a well-behaved job neither wedge its mesh
// construction nor fail it — each is dropped once the handshake
// deadline passes or the magic is wrong, and the mesh comes up.
func TestMeshIgnoresStrangers(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 50 * time.Millisecond
	lns, addrs := listeners(t, 2)
	silent, err := Dial(addrs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	garbage, err := Dial(addrs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	if _, err := garbage.Write([]byte("GET / HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	// Both strangers sit in rank 0's backlog ahead of rank 1.
	type built struct {
		m   *Mux
		err error
	}
	up := make(chan built, 2)
	for r := range lns {
		go func(r int) {
			m, err := ConnectMesh(r, make([]Device, 2), addrs, lns[r])
			up <- built{m, err}
		}(r)
	}
	for range lns {
		select {
		case b := <-up:
			if b.err != nil {
				t.Fatal(b.err)
			}
			defer b.m.Close()
		case <-time.After(10 * time.Second):
			t.Fatal("a silent dial-in wedged mesh construction")
		}
	}
}

func TestLoopbackJobSizes(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		devs, err := NewLoopbackJob(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, d := range devs {
			if d.Rank() != i || d.Size() != n {
				t.Fatalf("n=%d: dev %d reports rank=%d size=%d", n, i, d.Rank(), d.Size())
			}
		}
		// One full exchange round.
		var wg sync.WaitGroup
		for _, d := range devs {
			wg.Add(1)
			go func(d *Mux) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					if j != d.Rank() {
						if err := d.Send(j, []byte(fmt.Sprintf("%d->%d", d.Rank(), j))); err != nil {
							t.Errorf("send: %v", err)
						}
					}
				}
				for j := 0; j < n-1; j++ {
					if _, err := d.Recv(); err != nil {
						t.Errorf("recv: %v", err)
					}
				}
			}(d)
		}
		wg.Wait()
		for _, d := range devs {
			d.Close()
		}
	}
}
