package main

import "testing"

// Equal seeds must give byte-identical inputs and different seeds
// different ones, for every workload and independent of what was
// generated before.
func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		digest := func(seed uint64) string {
			in, err := generate(w, seed, 2)
			if err != nil {
				t.Fatalf("generate(%s, %d): %v", w, seed, err)
			}
			return in.digest()
		}
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w, a)
		}
	}
}

// svc_durable − svc_small is the journal's cost only if the two see the
// same bytes.
func TestDurableSharesSmallInputs(t *testing.T) {
	small, err := generate(wSmall, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := generate(wDurable, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.digest() != dur.digest() {
		t.Errorf("svc_small and svc_durable inputs differ: %s vs %s", small.digest(), dur.digest())
	}
}

func TestGeneratedShapes(t *testing.T) {
	in, err := generate(wFanout, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range in.bursts[0] {
		if len(b.Members) != burstSize {
			t.Fatalf("burst has %d members, want %d", len(b.Members), burstSize)
		}
	}
	in, err = generate(wPayload, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range in.jobs[0] {
		if n := len(j.Arg); n < 4<<10 || n > 32<<10 {
			t.Fatalf("payload of %d bytes outside [4 KiB, 32 KiB]", n)
		}
	}
	if _, err := generate("nope", 1, 1); err == nil {
		t.Error("generate accepted an unknown workload")
	}
}

func TestBodyInGroup(t *testing.T) {
	in := jobInput{Job: "sum", Arg: []byte{1, 2}}
	in.marshal()
	if got, want := string(in.bodyInGroup("g-7")), `{"job":"sum","arg":"AQI=","group":"g-7"}`; got != want {
		t.Errorf("bodyInGroup = %s, want %s", got, want)
	}
}
