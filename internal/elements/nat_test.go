package elements

import "testing"

// TestNATPortPoolPerCore: each core's replica owns the ports
// p ≡ core (mod cores), so the pools are disjoint and together cover the
// range; PORTS caps each core's pool; one core keeps the whole range in
// ascending order.
func TestNATPortPoolPerCore(t *testing.T) {
	one := newPortPool(0, 0, 1)
	if len(one.ports) != natLastPort-natFirstPort+1 {
		t.Fatalf("1-core pool holds %d ports, want the whole range", len(one.ports))
	}
	for i, p := range one.ports {
		if int(p) != natFirstPort+i {
			t.Fatalf("1-core pool slot %d holds port %d, want %d", i, p, natFirstPort+i)
		}
	}

	const cores = 3
	owner := map[uint16]int{}
	for c := 0; c < cores; c++ {
		pool := newPortPool(0, c, cores)
		prev := 0
		for {
			p, ok := pool.get()
			if !ok {
				break
			}
			if int(p)%cores != c {
				t.Fatalf("core %d drew port %d, which core %d owns", c, p, int(p)%cores)
			}
			if int(p) <= prev {
				t.Fatalf("core %d drew port %d after %d: not ascending", c, p, prev)
			}
			if o, dup := owner[p]; dup {
				t.Fatalf("port %d in the pools of cores %d and %d", p, o, c)
			}
			owner[p] = c
			prev = int(p)
		}
	}
	if len(owner) != natLastPort-natFirstPort+1 {
		t.Fatalf("the %d pools cover %d ports, want the whole range", cores, len(owner))
	}

	capped := newPortPool(4, 2, cores)
	var got []uint16
	for {
		p, ok := capped.get()
		if !ok {
			break
		}
		got = append(got, p)
	}
	if len(got) != 4 || got[0] != 1025 || got[3] != 1034 {
		t.Fatalf("PORTS 4 on core 2 of 3 drew %v, want [1025 1028 1031 1034]", got)
	}
}
