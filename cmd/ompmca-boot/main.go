// Command ompmca-boot walks the board bring-up of the paper's §4B and
// Figure 3: it first boots the T4240RDB the factory way (NOR flash,
// volatile root), demonstrates that a reset loses the development state,
// then reconfigures u-boot for TFTP kernel loading with an NFS root and
// shows the state surviving reboots. Exit status is nonzero if either
// root breaks its contract.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"openmpmca/internal/board"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ompmca-boot: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run boots the board both ways, writing the walk-through and Figure 3
// to stdout, and returns an error if the flash root keeps a file across
// a reset or the NFS root loses one across a reboot.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ompmca-boot", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print full boot logs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	b := board.NewBoard()
	boot := func(cfg board.BootConfig) (*board.RootFS, error) {
		b.Reset()
		if err := b.Boot(cfg); err != nil {
			return nil, err
		}
		if *verbose {
			for _, line := range b.BootLog() {
				fmt.Fprintln(stdout, "  "+line)
			}
		}
		return b.Root()
	}

	// Factory boot from NOR flash.
	fmt.Fprintln(stdout, "--- factory boot (NOR flash) ---")
	flash := board.BootConfig{Source: board.BootFlash}
	root, err := boot(flash)
	if err != nil {
		return err
	}
	const patch = "/home/dev/toolchain.patch"
	root.WriteFile(patch, []byte("work in progress"))
	fmt.Fprintf(stdout, "wrote %s to the RAM-disk root\n", patch)
	if root, err = boot(flash); err != nil {
		return err
	}
	if _, err := root.ReadFile(patch); err == nil {
		return fmt.Errorf("flash root kept %s across a reset", patch)
	}
	fmt.Fprintf(stdout, "after reset: %s is GONE (flash root is refreshed every reset)\n", patch)

	// Development boot: TFTP kernel + NFS root (Figure 3).
	fmt.Fprintln(stdout, "\n--- development boot (TFTP + NFS) ---")
	const export = "/srv/nfs/t4240"
	tftp := board.NewTFTPServer()
	tftp.Put("uImage-omp", devKernel())
	nfs := board.NewNFSServer()
	nfs.AddExport(export)
	b.Flash.SetEnv("bootcmd", "tftp uImage-omp; nfsroot "+export+"; bootm")
	dev := board.BootConfig{
		Source:     board.BootNetwork,
		TFTP:       tftp,
		KernelFile: "uImage-omp",
		NFS:        nfs,
		Export:     export,
	}
	if root, err = boot(dev); err != nil {
		return err
	}
	const lib = "/opt/mca-libgomp.so"
	want := []byte("the toolchain under development")
	root.WriteFile(lib, want)
	fmt.Fprintf(stdout, "installed %s on the NFS root\n", lib)
	if root, err = boot(dev); err != nil {
		return err
	}
	if data, err := root.ReadFile(lib); err != nil || !bytes.Equal(data, want) {
		return fmt.Errorf("NFS root lost %s across a reboot (read %q, %v)", lib, data, err)
	}
	fmt.Fprintf(stdout, "after reboot: %s intact (%d bytes) — NFS root persists\n\n", lib, len(want))
	fmt.Fprint(stdout, board.RenderEnvironment(b, tftp, nfs, export))
	return nil
}

// devKernel is the development kernel image served over TFTP.
func devKernel() []byte {
	// Re-use the flash image builder by round-tripping through a board's
	// factory flash; the content differs only in payload.
	f := board.NewNORFlash()
	img, _ := f.Read("uImage")
	return img
}
