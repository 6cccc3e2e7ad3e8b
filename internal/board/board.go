// Package board models the embedded development environment of the
// paper's §4B and Figure 3: a T4240RDB whose u-boot either boots the
// pre-installed image from NOR flash (with a volatile root file system
// that is refreshed on every reset) or fetches the kernel over TFTP and
// mounts a persistent root file system over NFS from a host workstation —
// the configuration the authors set up to survive development iterations.
package board

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"openmpmca/internal/platform"
)

// Errors returned by the boot flow.
var (
	ErrNoKernel     = errors.New("board: kernel image not found")
	ErrBadImage     = errors.New("board: kernel image failed verification")
	ErrNoServer     = errors.New("board: network server not configured")
	ErrNoExport     = errors.New("board: NFS export not found")
	ErrNotBooted    = errors.New("board: board is not booted")
	ErrFileNotFound = errors.New("board: file not found")
)

// ----- NOR flash -----

// NORFlash holds the factory u-boot environment and images.
type NORFlash struct {
	mu    sync.Mutex
	files map[string][]byte
	env   map[string]string
}

// NewNORFlash creates flash pre-installed the way Freescale ships the
// board: u-boot, a kernel image, and a bootargs environment selecting
// flash boot.
func NewNORFlash() *NORFlash {
	kernel := buildKernelImage("factory-linux-sdk")
	return &NORFlash{
		files: map[string][]byte{
			"u-boot.bin": []byte("u-boot 2014.07-T4240RDB"),
			"uImage":     kernel,
		},
		env: map[string]string{
			"bootcmd":  "bootm flash",
			"bootargs": "root=/dev/ram rw",
		},
	}
}

// Read returns a flash file.
func (f *NORFlash) Read(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.files[name]
	if !ok {
		return nil, ErrFileNotFound
	}
	return append([]byte(nil), data...), nil
}

// SetEnv updates a u-boot environment variable (saveenv persistence).
func (f *NORFlash) SetEnv(key, value string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.env[key] = value
}

// Env reads a u-boot environment variable.
func (f *NORFlash) Env(key string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.env[key]
}

// ----- kernel images -----

// imageMagic marks a valid uImage header.
const imageMagic = "uImage\x00"

// buildKernelImage wraps a payload with the header + checksum u-boot
// verifies before jumping into the kernel.
func buildKernelImage(payload string) []byte {
	sum := sha256.Sum256([]byte(payload))
	return []byte(imageMagic + hex.EncodeToString(sum[:8]) + "\x00" + payload)
}

// verifyKernelImage re-derives the checksum, as u-boot's bootm does.
func verifyKernelImage(img []byte) error {
	if len(img) < len(imageMagic)+17 || string(img[:len(imageMagic)]) != imageMagic {
		return ErrBadImage
	}
	rest := img[len(imageMagic):]
	wantSum := string(rest[:16])
	payload := rest[17:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:8]) != wantSum {
		return ErrBadImage
	}
	return nil
}

// ----- TFTP server (RFC 1350 block semantics) -----

// TFTPBlockSize is the RFC 1350 data block size.
const TFTPBlockSize = 512

// TFTPServer is the in-memory file host the development workstation runs
// for u-boot's kernel fetch.
type TFTPServer struct {
	mu     sync.Mutex
	files  map[string][]byte
	blocks uint64 // blocks served, for diagnostics
}

// NewTFTPServer creates an empty server.
func NewTFTPServer() *TFTPServer {
	return &TFTPServer{files: make(map[string][]byte)}
}

// Put installs a file.
func (s *TFTPServer) Put(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = append([]byte(nil), data...)
}

// Get transfers a file RRQ-style: data arrives in numbered 512-byte
// blocks, the transfer terminating with the first short block (a file of
// exactly k·512 bytes is followed by an empty terminating block, per the
// RFC). It returns the reassembled file and the block count.
func (s *TFTPServer) Get(name string) ([]byte, int, error) {
	s.mu.Lock()
	data, ok := s.files[name]
	s.mu.Unlock()
	if !ok {
		return nil, 0, ErrFileNotFound
	}
	var out []byte
	blocks := 0
	for off := 0; ; off += TFTPBlockSize {
		end := off + TFTPBlockSize
		if end > len(data) {
			end = len(data)
		}
		block := data[off:end]
		out = append(out, block...)
		blocks++
		s.mu.Lock()
		s.blocks++
		s.mu.Unlock()
		if len(block) < TFTPBlockSize {
			break // short (possibly empty) block terminates the transfer
		}
	}
	return out, blocks, nil
}

// BlocksServed reports total data blocks served.
func (s *TFTPServer) BlocksServed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocks
}

// ----- NFS server -----

// NFSServer hosts persistent root file systems exported to boards.
type NFSServer struct {
	mu      sync.Mutex
	exports map[string]map[string][]byte
}

// NewNFSServer creates a server with no exports.
func NewNFSServer() *NFSServer {
	return &NFSServer{exports: make(map[string]map[string][]byte)}
}

// AddExport creates an exported root file system.
func (s *NFSServer) AddExport(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.exports[name]; !ok {
		s.exports[name] = map[string][]byte{
			"/etc/hostname": []byte("t4240rdb"),
			"/sbin/init":    []byte("#!busybox init"),
		}
	}
}

// Mount attaches a client to an export; the returned RootFS operates
// directly on server state, so writes survive client reboots.
func (s *NFSServer) Mount(export string) (*RootFS, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs, ok := s.exports[export]
	if !ok {
		return nil, ErrNoExport
	}
	return &RootFS{server: s, files: fs, persistent: true}, nil
}

// RootFS is a mounted root file system: RAM-disk (volatile) or NFS
// (persistent).
type RootFS struct {
	server     *NFSServer // nil for RAM disks
	mu         sync.Mutex
	files      map[string][]byte
	persistent bool
}

// newRAMDisk builds the volatile root the factory flash image unpacks —
// "the file system will be refreshed for every reset" (§4B).
func newRAMDisk() *RootFS {
	return &RootFS{
		files: map[string][]byte{
			"/etc/hostname": []byte("t4240rdb"),
			"/sbin/init":    []byte("#!busybox init"),
		},
	}
}

// Persistent reports whether writes survive a reboot.
func (r *RootFS) Persistent() bool { return r.persistent }

// WriteFile stores a file.
func (r *RootFS) WriteFile(path string, data []byte) {
	r.lock()
	defer r.unlock()
	r.files[path] = append([]byte(nil), data...)
}

// ReadFile fetches a file.
func (r *RootFS) ReadFile(path string) ([]byte, error) {
	r.lock()
	defer r.unlock()
	data, ok := r.files[path]
	if !ok {
		return nil, ErrFileNotFound
	}
	return append([]byte(nil), data...), nil
}

// List returns all paths, sorted.
func (r *RootFS) List() []string {
	r.lock()
	defer r.unlock()
	out := make([]string, 0, len(r.files))
	for p := range r.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func (r *RootFS) lock() {
	if r.server != nil {
		r.server.mu.Lock()
	} else {
		r.mu.Lock()
	}
}

func (r *RootFS) unlock() {
	if r.server != nil {
		r.server.mu.Unlock()
	} else {
		r.mu.Unlock()
	}
}

// ----- the board and its boot flow -----

// BootSource selects where u-boot takes the kernel and root from.
type BootSource int

const (
	// BootFlash is the factory default: kernel from NOR flash, volatile
	// RAM-disk root.
	BootFlash BootSource = iota
	// BootNetwork is the paper's development setup: kernel over TFTP,
	// root over NFS.
	BootNetwork
)

func (b BootSource) String() string {
	if b == BootNetwork {
		return "tftp+nfs"
	}
	return "nor-flash"
}

// BootConfig parameterizes a boot.
type BootConfig struct {
	Source BootSource
	// TFTP / KernelFile / NFS / Export configure network boot.
	TFTP       *TFTPServer
	KernelFile string
	NFS        *NFSServer
	Export     string
}

// Board is the bootable T4240RDB: hardware model + flash + current
// software state.
type Board struct {
	HW    *platform.Board
	Flash *NORFlash

	mu     sync.Mutex
	booted bool
	root   *RootFS
	log    []string
}

// NewBoard ships a board in factory state.
func NewBoard() *Board {
	return &Board{HW: platform.T4240RDB(), Flash: NewNORFlash()}
}

// Booted reports whether the board is up.
func (b *Board) Booted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.booted
}

// Root returns the mounted root file system of a booted board.
func (b *Board) Root() (*RootFS, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.booted {
		return nil, ErrNotBooted
	}
	return b.root, nil
}

// BootLog returns the boot event trail of the last boot.
func (b *Board) BootLog() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.log...)
}

// Reset powers the board down; a flash-booted root is lost, an NFS root
// survives on the server.
func (b *Board) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.booted = false
	b.root = nil
	b.log = nil
}

// Boot runs the u-boot sequence for the given configuration.
func (b *Board) Boot(cfg BootConfig) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log = nil
	b.booted = false
	step := func(format string, args ...any) {
		b.log = append(b.log, fmt.Sprintf(format, args...))
	}

	step("power-on reset: %d cores / %d hw threads @ %d MHz", b.HW.Cores, b.HW.HWThreads(), b.HW.FreqMHz)
	if _, err := b.Flash.Read("u-boot.bin"); err != nil {
		step("u-boot missing from NOR flash")
		return ErrNoKernel
	}
	step("u-boot loaded from NOR flash")

	var kernel []byte
	switch cfg.Source {
	case BootFlash:
		img, err := b.Flash.Read("uImage")
		if err != nil {
			step("kernel missing from flash")
			return ErrNoKernel
		}
		kernel = img
		step("kernel read from NOR flash (%d bytes)", len(img))
	case BootNetwork:
		if cfg.TFTP == nil {
			return ErrNoServer
		}
		img, blocks, err := cfg.TFTP.Get(cfg.KernelFile)
		if err != nil {
			step("tftp %s: not found", cfg.KernelFile)
			return ErrNoKernel
		}
		kernel = img
		step("tftp %s: %d bytes in %d blocks", cfg.KernelFile, len(img), blocks)
	}

	if err := verifyKernelImage(kernel); err != nil {
		step("bootm: bad image checksum")
		return err
	}
	step("bootm: image verified, starting kernel")

	switch cfg.Source {
	case BootFlash:
		b.root = newRAMDisk()
		step("root: RAM disk unpacked (volatile — refreshed every reset)")
	case BootNetwork:
		if cfg.NFS == nil {
			return ErrNoServer
		}
		root, err := cfg.NFS.Mount(cfg.Export)
		if err != nil {
			step("nfs mount %s: no such export", cfg.Export)
			return err
		}
		b.root = root
		step("root: NFS export %q mounted rw (persistent on host)", cfg.Export)
	}
	step("init: system up, %s boot complete", cfg.Source)
	b.booted = true
	return nil
}

// NetworkEnvironment carries the servers a network boot needs; BootAuto
// resolves them from the u-boot environment.
type NetworkEnvironment struct {
	TFTP *TFTPServer
	NFS  *NFSServer
}

// BootAuto boots the way u-boot's saved environment dictates (§4B: the
// authors "modify the board's configuration" by rewriting bootcmd): a
// bootcmd containing "tftp" selects the network path, with the kernel
// file taken from the "kernelfile" variable and the NFS root from
// "nfsroot"; anything else boots the factory flash image.
func (b *Board) BootAuto(env NetworkEnvironment) error {
	bootcmd := b.Flash.Env("bootcmd")
	if !strings.Contains(bootcmd, "tftp") {
		return b.Boot(BootConfig{Source: BootFlash})
	}
	return b.Boot(BootConfig{
		Source:     BootNetwork,
		TFTP:       env.TFTP,
		KernelFile: b.Flash.Env("kernelfile"),
		NFS:        env.NFS,
		Export:     b.Flash.Env("nfsroot"),
	})
}

// RenderEnvironment draws the Figure 3 development-environment diagram
// for a network-boot setup. The workstation box is as wide as its
// longest line, so any export path keeps the borders aligned.
func RenderEnvironment(b *Board, tftp *TFTPServer, nfs *NFSServer, export string) string {
	left := []string{
		"  Linux workstation   ",
		fmt.Sprintf("  TFTP: %4d blocks   ", tftp.BlocksServed()),
		"  NFS export: " + export + " ",
	}
	w := 0
	for _, l := range left {
		w = max(w, len(l))
	}
	border := "+" + strings.Repeat("-", w) + "+            +--------------------+\n"
	var sb strings.Builder
	sb.WriteString("Figure 3 — NFS development environment\n")
	sb.WriteString(border)
	fmt.Fprintf(&sb, "|%-*s|  ethernet  |      T4240RDB      |\n", w, left[0])
	fmt.Fprintf(&sb, "|%-*s|<---------->|  u-boot -> kernel  |\n", w, left[1])
	fmt.Fprintf(&sb, "|%-*s|            |  rootfs over NFS   |\n", w, left[2])
	sb.WriteString(border)
	if b.Booted() {
		fmt.Fprintf(&sb, "board state: up (%d hw threads online)\n", b.HW.HWThreads())
	} else {
		sb.WriteString("board state: down\n")
	}
	return sb.String()
}
