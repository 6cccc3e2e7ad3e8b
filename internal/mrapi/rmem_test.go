package mrapi

import (
	"bytes"
	"errors"
	"testing"
)

func TestRmemReadWriteRoundTrip(t *testing.T) {
	a, b := twoNodes(t)
	r, err := a.RmemCreate(1, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(b); err != nil {
		t.Fatal(err)
	}
	msg := []byte("remote payload")
	if err := r.Write(a, 100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := r.Read(b, 100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read %q, want %q", got, msg)
	}
	st := r.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesRead != uint64(len(msg)) || st.BytesWritten != uint64(len(msg)) {
		t.Errorf("byte counters = %+v", st)
	}
}

func TestRmemRequiresAttach(t *testing.T) {
	a, b := twoNodes(t)
	r, _ := a.RmemCreate(1, 64, nil)
	buf := make([]byte, 8)
	if err := r.Read(b, 0, buf); !errors.Is(err, ErrRmemNotAttached) {
		t.Errorf("read unattached = %v, want ErrRmemNotAttached", err)
	}
	if err := r.Detach(b); !errors.Is(err, ErrRmemNotAttached) {
		t.Errorf("detach unattached = %v, want ErrRmemNotAttached", err)
	}
}

func TestRmemBoundsChecks(t *testing.T) {
	a, _ := twoNodes(t)
	r, _ := a.RmemCreate(1, 64, nil)
	if err := r.Attach(a); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if err := r.Read(a, 60, buf); !errors.Is(err, ErrParameter) {
		t.Errorf("overflow read = %v, want ErrParameter", err)
	}
	if err := r.Write(a, -1, buf); !errors.Is(err, ErrParameter) {
		t.Errorf("negative offset = %v, want ErrParameter", err)
	}
}

func TestRmemDMAGranularity(t *testing.T) {
	a, _ := twoNodes(t)
	r, _ := a.RmemCreate(1, 256, &RmemAttributes{Access: RmemDMA})
	if err := r.Attach(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(a, 0, make([]byte, 10)); !errors.Is(err, ErrRmemTypeNotValid) {
		t.Errorf("sub-burst DMA write = %v, want ErrRmemTypeNotValid", err)
	}
	if err := r.Write(a, 0, make([]byte, 2*DMABurstSize)); err != nil {
		t.Fatalf("aligned DMA write: %v", err)
	}
	if st := r.Stats(); st.DMABursts != 2 {
		t.Errorf("DMABursts = %d, want 2", st.DMABursts)
	}
}

func TestRmemStrided(t *testing.T) {
	a, _ := twoNodes(t)
	r, _ := a.RmemCreate(1, 100, nil)
	if err := r.Attach(a); err != nil {
		t.Fatal(err)
	}
	// Gather-write 4 elements of 2 bytes with stride 10.
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := r.WriteStrided(a, 0, 2, 10, 4, src); err != nil {
		t.Fatal(err)
	}
	flat := make([]byte, 32)
	if err := r.Read(a, 0, flat); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if flat[i*10] != src[i*2] || flat[i*10+1] != src[i*2+1] {
			t.Errorf("element %d misplaced: %v", i, flat)
		}
	}
	// Scatter-read them back densely.
	dst := make([]byte, 8)
	if err := r.ReadStrided(a, 0, 2, 10, 4, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Errorf("strided read = %v, want %v", dst, src)
	}
}

func TestRmemStridedValidation(t *testing.T) {
	a, _ := twoNodes(t)
	r, _ := a.RmemCreate(1, 100, nil)
	if err := r.Attach(a); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if err := r.ReadStrided(a, 0, 4, 2, 4, buf); !errors.Is(err, ErrRmemStride) {
		t.Errorf("stride < elem = %v, want ErrRmemStride", err)
	}
	if err := r.ReadStrided(a, 0, 4, 40, 4, buf); !errors.Is(err, ErrParameter) {
		t.Errorf("out-of-bounds strided = %v, want ErrParameter", err)
	}
	if err := r.ReadStrided(a, 0, 4, 8, 0, nil); err != nil {
		t.Errorf("zero-count strided should be a no-op: %v", err)
	}
}

func TestRmemDeleteBlockedByAttachment(t *testing.T) {
	a, _ := twoNodes(t)
	r, _ := a.RmemCreate(1, 64, nil)
	if err := r.Attach(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(a); !errors.Is(err, ErrRmemAttached) {
		t.Errorf("delete while attached = %v, want ErrRmemAttached", err)
	}
	if err := r.Detach(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(a); err != nil {
		t.Fatalf("delete after detach: %v", err)
	}
	if _, err := a.RmemGet(1); !errors.Is(err, ErrRmemInvalid) {
		t.Errorf("get after delete = %v, want ErrRmemInvalid", err)
	}
}

func TestRmemDuplicateKey(t *testing.T) {
	a, _ := twoNodes(t)
	if _, err := a.RmemCreate(1, 64, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RmemCreate(1, 64, nil); !errors.Is(err, ErrRmemExists) {
		t.Errorf("duplicate = %v, want ErrRmemExists", err)
	}
	if _, err := a.RmemCreate(2, 0, nil); !errors.Is(err, ErrParameter) {
		t.Errorf("zero size = %v, want ErrParameter", err)
	}
}

// The name is historical (the lease arena this test once went through is
// gone); the ID stays so the suite's floor list still finds it.
func TestWindowArenaPaddedTransferRoundTrip(t *testing.T) {
	a, b := twoNodes(t)
	r, err := a.RmemCreate(7, 1<<10, &RmemAttributes{Access: RmemDMA})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{a, b} {
		if err := r.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 100) // deliberately not burst-aligned
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	const off = 2 * DMABurstSize
	if err := RmemWritePadded(r, a, off, payload); err != nil {
		t.Fatalf("padded write: %v", err)
	}
	got, err := RmemReadPadded(r, b, off, len(payload))
	if err != nil {
		t.Fatalf("padded read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across the window")
	}
	// One padded write plus one padded read.
	want := uint64(2 * PadToBurst(len(payload)) / DMABurstSize)
	if st := r.Stats(); st.DMABursts != want {
		t.Errorf("DMABursts = %d, want %d", st.DMABursts, want)
	}
}
