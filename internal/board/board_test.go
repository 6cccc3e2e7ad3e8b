package board

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestFlashBootVolatileRoot(t *testing.T) {
	b := NewBoard()
	if err := b.Boot(BootConfig{Source: BootFlash}); err != nil {
		t.Fatal(err)
	}
	if !b.Booted() {
		t.Fatal("board not booted")
	}
	root, err := b.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root.Persistent() {
		t.Error("flash root must be volatile")
	}
	root.WriteFile("/home/dev/app", []byte("my work"))
	// §4B: "the file system will be refreshed for every reset".
	b.Reset()
	if err := b.Boot(BootConfig{Source: BootFlash}); err != nil {
		t.Fatal(err)
	}
	root2, _ := b.Root()
	if _, err := root2.ReadFile("/home/dev/app"); !errors.Is(err, ErrFileNotFound) {
		t.Error("flash-boot root survived a reset; it must be refreshed")
	}
}

func TestNetworkBootPersistentRoot(t *testing.T) {
	b := NewBoard()
	tftp := NewTFTPServer()
	tftp.Put("uImage-dev", buildKernelImage("custom-kernel-4.9-omp"))
	nfs := NewNFSServer()
	nfs.AddExport("/srv/t4240")
	cfg := BootConfig{Source: BootNetwork, TFTP: tftp, KernelFile: "uImage-dev", NFS: nfs, Export: "/srv/t4240"}
	if err := b.Boot(cfg); err != nil {
		t.Fatal(err)
	}
	root, _ := b.Root()
	if !root.Persistent() {
		t.Fatal("NFS root must be persistent")
	}
	root.WriteFile("/opt/mca-libgomp.so", []byte("toolchain"))
	b.Reset()
	if b.Booted() {
		t.Error("board up after reset")
	}
	if err := b.Boot(cfg); err != nil {
		t.Fatal(err)
	}
	root2, _ := b.Root()
	data, err := root2.ReadFile("/opt/mca-libgomp.so")
	if err != nil || !bytes.Equal(data, []byte("toolchain")) {
		t.Errorf("NFS root lost data across reboot: %q, %v", data, err)
	}
}

func TestBootLogNarratesSequence(t *testing.T) {
	b := NewBoard()
	tftp := NewTFTPServer()
	tftp.Put("k", buildKernelImage("x"))
	nfs := NewNFSServer()
	nfs.AddExport("root")
	_ = b.Boot(BootConfig{Source: BootNetwork, TFTP: tftp, KernelFile: "k", NFS: nfs, Export: "root"})
	log := strings.Join(b.BootLog(), "\n")
	for _, want := range []string{"power-on reset", "u-boot loaded", "tftp k:", "image verified", "NFS export", "boot complete"} {
		if !strings.Contains(log, want) {
			t.Errorf("boot log missing %q:\n%s", want, log)
		}
	}
}

func TestBootFailures(t *testing.T) {
	b := NewBoard()
	if err := b.Boot(BootConfig{Source: BootNetwork}); !errors.Is(err, ErrNoServer) {
		t.Errorf("no tftp = %v", err)
	}
	tftp := NewTFTPServer()
	if err := b.Boot(BootConfig{Source: BootNetwork, TFTP: tftp, KernelFile: "nope"}); !errors.Is(err, ErrNoKernel) {
		t.Errorf("missing kernel = %v", err)
	}
	tftp.Put("bad", []byte("not a uImage"))
	if err := b.Boot(BootConfig{Source: BootNetwork, TFTP: tftp, KernelFile: "bad"}); !errors.Is(err, ErrBadImage) {
		t.Errorf("bad image = %v", err)
	}
	tftp.Put("ok", buildKernelImage("k"))
	if err := b.Boot(BootConfig{Source: BootNetwork, TFTP: tftp, KernelFile: "ok"}); !errors.Is(err, ErrNoServer) {
		t.Errorf("no nfs = %v", err)
	}
	nfs := NewNFSServer()
	if err := b.Boot(BootConfig{Source: BootNetwork, TFTP: tftp, KernelFile: "ok", NFS: nfs, Export: "x"}); !errors.Is(err, ErrNoExport) {
		t.Errorf("missing export = %v", err)
	}
	if b.Booted() {
		t.Error("board reports booted after failures")
	}
	if _, err := b.Root(); !errors.Is(err, ErrNotBooted) {
		t.Errorf("Root on down board = %v", err)
	}
}

func TestImageVerification(t *testing.T) {
	img := buildKernelImage("payload")
	if err := verifyKernelImage(img); err != nil {
		t.Fatal(err)
	}
	// A flipped payload byte must fail the checksum.
	img[len(img)-1] ^= 0xFF
	if err := verifyKernelImage(img); !errors.Is(err, ErrBadImage) {
		t.Errorf("corrupted image = %v", err)
	}
	if err := verifyKernelImage([]byte("short")); !errors.Is(err, ErrBadImage) {
		t.Errorf("short image = %v", err)
	}
}

func TestTFTPBlockSequencing(t *testing.T) {
	s := NewTFTPServer()
	cases := []struct {
		size, blocks int
	}{
		{0, 1},                    // empty file: one empty block
		{100, 1},                  // sub-block file
		{TFTPBlockSize, 2},        // exact multiple: empty terminator
		{TFTPBlockSize*3 + 10, 4}, // three full + one short
		{TFTPBlockSize * 2, 3},    // two full + empty terminator
	}
	for _, c := range cases {
		data := bytes.Repeat([]byte{0xAB}, c.size)
		s.Put("f", data)
		got, blocks, err := s.Get("f")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("size %d: data mismatch (%v)", c.size, err)
		}
		if blocks != c.blocks {
			t.Errorf("size %d: %d blocks, want %d", c.size, blocks, c.blocks)
		}
	}
	if _, _, err := s.Get("missing"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("missing file = %v", err)
	}
	if s.BlocksServed() == 0 {
		t.Error("blocks counter never advanced")
	}
}

func TestUBootEnv(t *testing.T) {
	f := NewNORFlash()
	if f.Env("bootcmd") != "bootm flash" {
		t.Errorf("factory bootcmd = %q", f.Env("bootcmd"))
	}
	f.SetEnv("bootcmd", "tftp; bootm")
	if f.Env("bootcmd") != "tftp; bootm" {
		t.Error("saveenv lost the update")
	}
}

func TestNFSSharedAcrossMounts(t *testing.T) {
	nfs := NewNFSServer()
	nfs.AddExport("root")
	m1, err := nfs.Mount("root")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := nfs.Mount("root")
	if err != nil {
		t.Fatal(err)
	}
	m1.WriteFile("/shared", []byte("visible"))
	data, err := m2.ReadFile("/shared")
	if err != nil || string(data) != "visible" {
		t.Errorf("second mount sees %q, %v", data, err)
	}
	if len(m2.List()) < 3 {
		t.Errorf("List = %v", m2.List())
	}
}

func TestRenderEnvironmentFigure3(t *testing.T) {
	// A short export and ompmca-boot's: the box must stay aligned for both.
	for _, export := range []string{"root", "/srv/nfs/t4240"} {
		b := NewBoard()
		tftp := NewTFTPServer()
		tftp.Put("k", buildKernelImage("x"))
		nfs := NewNFSServer()
		nfs.AddExport(export)
		_ = b.Boot(BootConfig{Source: BootNetwork, TFTP: tftp, KernelFile: "k", NFS: nfs, Export: export})
		out := RenderEnvironment(b, tftp, nfs, export)
		for _, want := range []string{"Figure 3", "TFTP", "NFS export: " + export, "T4240RDB", "board state: up"} {
			if !strings.Contains(out, want) {
				t.Errorf("render missing %q:\n%s", want, out)
			}
		}
		var box []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "+") || strings.HasPrefix(line, "|") {
				box = append(box, line)
			}
		}
		if len(box) != 5 {
			t.Fatalf("export %q: %d box lines, want 5:\n%s", export, len(box), out)
		}
		for _, line := range box[1:] {
			if len(line) != len(box[0]) {
				t.Errorf("export %q: box lines differ in width (%d vs %d):\n%s", export, len(line), len(box[0]), out)
				break
			}
		}
	}
}

func TestBootAutoFollowsEnv(t *testing.T) {
	b := NewBoard()
	// Factory environment boots from flash.
	if err := b.BootAuto(NetworkEnvironment{}); err != nil {
		t.Fatal(err)
	}
	root, _ := b.Root()
	if root.Persistent() {
		t.Error("factory env should select flash boot (volatile root)")
	}

	// Rewriting bootcmd (the §4B reconfiguration) switches to TFTP/NFS.
	tftp := NewTFTPServer()
	tftp.Put("uImage-dev", buildKernelImage("dev"))
	nfs := NewNFSServer()
	nfs.AddExport("/srv/dev")
	b.Flash.SetEnv("bootcmd", "tftp; nfsroot; bootm")
	b.Flash.SetEnv("kernelfile", "uImage-dev")
	b.Flash.SetEnv("nfsroot", "/srv/dev")
	b.Reset()
	if err := b.BootAuto(NetworkEnvironment{TFTP: tftp, NFS: nfs}); err != nil {
		t.Fatal(err)
	}
	root, _ = b.Root()
	if !root.Persistent() {
		t.Error("tftp bootcmd should select the NFS root")
	}
	// Saved env survives resets (NOR-flash persistence), so the next auto
	// boot repeats the network path without reconfiguration.
	b.Reset()
	if err := b.BootAuto(NetworkEnvironment{TFTP: tftp, NFS: nfs}); err != nil {
		t.Fatal(err)
	}
	root, _ = b.Root()
	if !root.Persistent() {
		t.Error("saved env lost across reset")
	}
}

func TestBootAutoMissingServers(t *testing.T) {
	b := NewBoard()
	b.Flash.SetEnv("bootcmd", "tftp; bootm")
	if err := b.BootAuto(NetworkEnvironment{}); !errors.Is(err, ErrNoServer) {
		t.Errorf("auto network boot without servers = %v", err)
	}
}
