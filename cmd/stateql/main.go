// Command stateql opens a durable state directory (written by
// cmd/statestream -dir or any engine using core.WithDurableDir),
// recovering its segments and WAL chain, and answers temporal queries
// against the recovered repository — the paper's §3.2 "queryable state"
// benefit, offline: the state outlives the stream processor that built
// it.
//
// The recovered repository is bitemporal: retroactive corrections keep
// their original transaction times, so SYSTEM TIME ASOF queries recover
// any past belief —
//
//	stateql -dir state.d "SELECT entity, value FROM position ASOF 1m SYSTEM TIME ASOF 30s"
//
// Usage:
//
//	stateql -dir state.d "SELECT entity, value FROM position" \
//	                     "SELECT * FROM * HISTORY LIMIT 20"
//	stateql -dir state.d -i     # interactive REPL (\q quits, \stats, \help)
//
// A directory whose WAL predates the frames fails to open, naming the
// file; DESIGN.md ("The bitemporal StateDB") says how to migrate it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/state"
	"repro/internal/temporal"
)

func main() {
	dir := flag.String("dir", "", "durable state directory to open (required)")
	interactive := flag.Bool("i", false, "interactive mode: read queries from stdin")
	flag.Parse()
	if err := run(*dir, *interactive, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "stateql:", err)
		os.Exit(1)
	}
}

func run(dir string, interactive bool, queries []string) (err error) {
	if dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if !interactive && len(queries) == 0 {
		return fmt.Errorf("no queries given (use -i for interactive mode)")
	}
	// Opening creates a missing directory; a reader should not.
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	e := core.New(core.WithDurableDir(dir))
	defer func() {
		if cerr := e.Close(); err == nil {
			err = cerr
		}
	}()
	if err := e.Health().DurableErr; err != nil {
		return err
	}
	store := e.Store()
	st := store.Stats()
	fmt.Printf("opened %s: %d keys, %d versions, %d current, %d superseded\n",
		dir, st.Keys, st.Versions, st.Current, st.Superseded)

	// Anchor now() past every stored validity start so CURRENT sees the
	// final state.
	var horizon temporal.Instant
	for _, f := range store.Scan(nil) {
		if f.Validity.Start > horizon {
			horizon = f.Validity.Start
		}
	}
	ex := &query.Executor{Store: store, Now: horizon + 1}
	for _, q := range queries {
		fmt.Printf("\n> %s\n", q)
		res, err := ex.Run(q)
		if err != nil {
			return err
		}
		fmt.Print(res)
	}
	if interactive {
		return repl(ex, store)
	}
	return nil
}

// repl reads queries line by line. Errors are reported, not fatal; \q or
// EOF ends the session; \stats prints store occupancy; \help lists the
// dialect.
func repl(ex *query.Executor, store *state.Store) error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	fmt.Print("stateql> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q` || line == "exit" || line == "quit":
			return nil
		case line == `\stats`:
			st := store.Stats()
			fmt.Printf("keys=%d versions=%d current=%d attributes=%d records=%d superseded=%d\n",
				st.Keys, st.Versions, st.Current, st.Attributes, st.Records, st.Superseded)
		case line == `\help`:
			fmt.Print(`SELECT cols FROM attr [CURRENT | ASOF t | DURING a TO b | HISTORY]
       [SYSTEM TIME ASOF tt] [WHERE expr] [GROUP BY cols] [ORDER BY cols] [LIMIT n]
columns: entity, attribute, value, start, end, recorded, superseded
SYSTEM TIME ASOF tt queries the belief held at transaction time tt.
`)
		default:
			res, err := ex.Run(line)
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Print(res)
			}
		}
		fmt.Print("stateql> ")
	}
	fmt.Println()
	return sc.Err()
}
