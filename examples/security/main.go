// Command security reproduces the paper's §1 building-monitoring use
// case: sensors signal an event whenever a visitor enters a room. A fixed
// five-minute window concludes that a visitor who moved through several
// rooms is in all of them simultaneously; the explicit-state engine's
// REPLACE rule keeps exactly one valid position per visitor ("the most
// recent position invalidates and updates any previous position").
//
// The program runs both systems on the same event sequence and prints the
// conclusions each draws, then demonstrates a pattern-triggered rule
// (tailgating detection) and historical queries.
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	statestream "repro"
)

var schema = statestream.NewSchema(
	statestream.Field{Name: "visitor", Kind: statestream.KindString},
	statestream.Field{Name: "room", Kind: statestream.KindString},
)

func entry(at time.Duration, visitor, room string) *statestream.Element {
	return statestream.NewElement("RoomEntry", statestream.Instant(at),
		statestream.NewTuple(schema, statestream.String(visitor), statestream.String(room)))
}

func main() {
	// One visitor walks through three rooms within five minutes; the two
	// visitors' event streams are merged in timestamp order.
	mallory := []*statestream.Element{
		entry(0*time.Minute, "mallory", "lobby"),
		entry(1*time.Minute, "mallory", "lab"),
		entry(3*time.Minute, "mallory", "vault"),
	}
	trent := []*statestream.Element{
		entry(2*time.Minute, "trent", "lobby"),
	}
	els := statestream.MergeSorted(mallory, trent)

	windowConclusions(els)
	stateConclusions(els)
	tailgatingPattern()
}

// windowConclusions shows the window paradigm: everything in the window
// is treated as valid simultaneously.
func windowConclusions(els []*statestream.Element) {
	w := statestream.NewTumblingTime(statestream.Instant(5 * time.Minute))
	for _, el := range els {
		w.Observe(el)
	}
	fmt.Println("Window paradigm (5m window) concludes:")
	for _, pane := range w.AdvanceTo(statestream.Instant(5 * time.Minute)) {
		rooms := map[string][]string{}
		for _, el := range pane.Elements {
			v := el.MustGet("visitor").MustString()
			rooms[v] = append(rooms[v], el.MustGet("room").MustString())
		}
		for _, v := range slices.Sorted(maps.Keys(rooms)) {
			fmt.Printf("  %s is in %v — %d rooms at once!\n", v, rooms[v], len(rooms[v]))
		}
	}
}

// stateConclusions runs the explicit-state engine on the same stream.
func stateConclusions(els []*statestream.Element) {
	engine := statestream.New(statestream.WithPolicy(statestream.StateFirst))
	if err := engine.DeployRules(`
RULE position ON RoomEntry AS r
THEN REPLACE position(r.visitor) = r.room`); err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nExplicit state concludes (current):")
	res, err := engine.Query("SELECT entity, value FROM position ORDER BY entity")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	fmt.Println("\nAnd can answer historical questions — who was where at t=2m?")
	res, err = engine.Query(fmt.Sprintf(
		"SELECT entity, value FROM position ASOF %d ORDER BY entity",
		statestream.Instant(2*time.Minute)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	fmt.Println("\nFull movement history of mallory:")
	res, err = engine.Query("SELECT value, start, end FROM position HISTORY WHERE entity = 'mallory'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	// Security review at t=10m: the lab badge reader was offline — mallory
	// was actually in the server room between t=1m and t=3m. The
	// bitemporal StateDB records the correction without destroying the
	// original record, so the audit trail keeps both timelines.
	err = engine.DB().Put("mallory", "position", statestream.String("serverroom"),
		statestream.WithValidTime(statestream.Instant(1*time.Minute)),
		statestream.WithEndValidTime(statestream.Instant(3*time.Minute)),
		statestream.WithTransactionTime(statestream.Instant(10*time.Minute)))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nCorrected: where was mallory at t=2m?")
	res, err = engine.Query(fmt.Sprintf(
		"SELECT value FROM position ASOF %d WHERE entity = 'mallory'",
		statestream.Instant(2*time.Minute)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	fmt.Println("\nAudit: what did the system believe at t=5m about t=2m?")
	res, err = engine.Query(fmt.Sprintf(
		"SELECT value FROM position ASOF %d SYSTEM TIME ASOF %d WHERE entity = 'mallory'",
		statestream.Instant(2*time.Minute), statestream.Instant(5*time.Minute)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	fmt.Println("\nAudit trail (every record, superseded ones included):")
	for _, f := range engine.DB().History("mallory", "position", statestream.AllVersions()) {
		marker := ""
		if f.Superseded() {
			marker = fmt.Sprintf("  [superseded at %s]", f.SupersededAt)
		}
		fmt.Printf("  %-10s %s recorded %s%s\n", f.Value, f.Validity, f.RecordedAt, marker)
	}
}

// tailgatingPattern shows a multi-element state management rule (§3.3:
// "a state transition ... determined by multiple streaming elements"):
// two badge events on the same door within 10 seconds raise an alert and
// flag the door in the state.
func tailgatingPattern() {
	engine := statestream.New(statestream.StateFirst)
	if err := engine.DeployRules(`
RULE tailgate
ON SEQ(Badge AS a, Badge AS b) WITHIN 10s
WHERE a.room = b.room AND a.visitor != b.visitor
THEN REPLACE suspicious(a.room) = true,
     EMIT Alert(door = a.room, first = a.visitor, second = b.visitor)`); err != nil {
		log.Fatal(err)
	}
	badge := func(at time.Duration, visitor, door string) *statestream.Element {
		return statestream.NewElement("Badge", statestream.Instant(at),
			statestream.NewTuple(schema, statestream.String(visitor), statestream.String(door)))
	}
	els := []*statestream.Element{
		badge(0, "ann", "door1"),
		badge(4*time.Second, "bob", "door1"), // tailgates ann
		badge(30*time.Second, "cat", "door1"),
	}
	if err := engine.Run(statestream.FromElements(els)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTailgating alerts (pattern-triggered rule):")
	for _, alert := range engine.Emitted() {
		fmt.Printf("  %s: %s then %s on %s\n", alert.Stream,
			alert.MustGet("first").MustString(),
			alert.MustGet("second").MustString(),
			alert.MustGet("door").MustString())
	}
	res, err := engine.Query("SELECT entity, value FROM suspicious")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSuspicious doors in state:")
	fmt.Print(res)
}
