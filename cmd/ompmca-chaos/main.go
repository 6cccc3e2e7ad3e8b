// Command ompmca-chaos runs seeded, replayable fault campaigns against
// the runtime's offload, task-fabric and job-service layers and asserts
// the two chaos properties: byte-exact results and zero lost jobs
// (internal/chaos).
//
//	ompmca-chaos -seed 42 -campaigns 6 -duration 2s   # a full sweep
//	ompmca-chaos -seed 42 -campaigns 1                # replay one schedule
//	ompmca-chaos -kill-mid-graph                      # the promoted CI scenario
//	ompmca-chaos -mesh                                # the 8-domain peer-steal scenarios
//	ompmca-chaos -crash -serve-bin ./ompmca-serve     # SIGKILL a durable server mid-load
//	ompmca-chaos -json > results.json                 # machine-readable verdicts
//
// -crash runs the durability campaign: it boots the given server binary
// with a -state-dir, loads it over HTTP, SIGKILLs it with spin jobs
// still in flight, restarts it over the same state dir and requires
// every accepted job to settle byte-exact — the write-ahead journal's
// zero-loss contract under genuine process death.
//
// The entire fault schedule — which domains die when, which frame-fault
// windows open at what rates, where the saturation bursts land — derives
// from -seed, so a failing run's seed is a complete reproduction recipe.
// Exit status is nonzero if any campaign loses a job, settles inexact,
// or surfaces an unclassified error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"openmpmca/internal/chaos"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ompmca-chaos: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, runs the selected campaigns and writes their verdicts
// to stdout. It returns an error naming the replay seed if any campaign
// failed.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ompmca-chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "campaign schedule seed (replay a failure with its seed)")
	campaigns := fs.Int("campaigns", 6, "number of campaigns to derive and run")
	duration := fs.Duration("duration", 2*time.Second, "per-campaign fault-schedule budget")
	killMidGraph := fs.Bool("kill-mid-graph", false, "run only the fixed kill-mid-graph scenario")
	mesh := fs.Bool("mesh", false, "run only the fixed peer-steal mesh scenarios (kill-victim-mid-yield, dead-peer-channel)")
	crash := fs.Bool("crash", false, "run the crash-restart durability campaign against a server binary (-serve-bin)")
	serveBin := fs.String("serve-bin", "", "path to an ompmca-serve binary for -crash")
	stateDir := fs.String("state-dir", "", "state dir for -crash (default: a fresh temp dir)")
	crashJobs := fs.Int("crash-jobs", 16, "closed-form jobs submitted per life for -crash")
	crashKills := fs.Int("crash-kills", 2, "SIGKILL/restart cycles for -crash")
	verbose := fs.Bool("v", false, "print each campaign's schedule before running it")
	jsonOut := fs.Bool("json", false, "emit results as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *crash {
		return runCrash(stdout, *seed, *serveBin, *stateDir, *crashJobs, *crashKills, *jsonOut)
	}

	var plan []chaos.Campaign
	switch {
	case *killMidGraph:
		plan = []chaos.Campaign{chaos.KillMidGraphCampaign()}
	case *mesh:
		plan = chaos.MeshCampaigns()
	default:
		plan = chaos.Plan(*seed, *campaigns, *duration)
	}

	results := make([]chaos.Result, 0, len(plan))
	failed := 0
	for _, c := range plan {
		if *verbose && !*jsonOut {
			fmt.Fprint(stdout, c.Schedule())
		}
		r := chaos.Run(c)
		results = append(results, r)
		if !*jsonOut {
			printResult(stdout, r)
		}
		if !r.OK() {
			failed++
		}
	}

	if *jsonOut {
		if err := writeJSON(stdout, results); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "%d/%d campaigns passed (seed %d)\n", len(plan)-failed, len(plan), *seed)
	}
	if failed > 0 {
		return fmt.Errorf("%d campaign(s) failed; replay with -seed %d", failed, *seed)
	}
	return nil
}

// runCrash executes the crash-restart durability campaign. A state dir
// it creates is removed when it returns; one the caller named is kept.
func runCrash(stdout io.Writer, seed int64, serveBin, stateDir string, jobs, kills int, jsonOut bool) error {
	if serveBin == "" {
		return errors.New("-crash requires -serve-bin")
	}
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "ompmca-crash-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}
	r := chaos.RunCrash(chaos.CrashCampaign{
		Name:     "crash-restart",
		Seed:     seed,
		ServeBin: serveBin,
		StateDir: stateDir,
		Jobs:     jobs,
		Kills:    kills,
	})
	if jsonOut {
		if err := writeJSON(stdout, r); err != nil {
			return err
		}
	} else {
		printResult(stdout, r)
		fmt.Fprintf(stdout, "recovered %d job(s) across %d SIGKILL(s)\n", r.Recovered, kills)
	}
	if !r.OK() {
		return fmt.Errorf("crash campaign failed; replay with -seed %d", seed)
	}
	return nil
}

// printResult writes one campaign's verdict line and its failures.
func printResult(w io.Writer, r chaos.Result) {
	fmt.Fprintln(w, r.Summary())
	for _, f := range r.Failures {
		fmt.Fprintf(w, "    FAIL %s\n", f)
	}
}

// writeJSON writes v to w as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
