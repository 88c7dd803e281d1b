// edtcflow replays the complete designer scenario of section 3.4 of the
// paper — three HDL model versions, synthesis into a two-block hierarchy,
// automatic netlisting through the exec rule, and the outofdate wave that
// follows the final check-in — then prints every state the narrative
// mentions, side by side with the paper's claims.
package main

import (
	"fmt"
	"log"

	"repro/internal/flow"
	"repro/internal/state"
)

func main() {
	log.SetFlags(0)
	sess, rec, err := flow.NewEDTCSession(1995)
	if err != nil {
		log.Fatal(err)
	}
	res, err := flow.RunEDTCScenario(sess)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("The story of section 3.4, replayed:")
	fmt.Println()
	fmt.Printf("1. %v written and simulated       -> %q (paper: negative result)\n", res.HDL1, res.FirstSim)
	fmt.Printf("2. %v fixed and re-simulated      -> %q (paper: good)\n", res.HDL2, res.SecondSim)
	fmt.Printf("3. synthesis created %v and its component %v\n", res.CPUSchematic, res.REGSchematic)
	fmt.Printf("4. the netlister ran automatically on check-in -> %v\n", res.Netlist)
	fmt.Printf("5. the designers changed the model again -> %v\n", res.HDL3)
	fmt.Printf("   the ckin event posted outofdate down the derived links;\n")
	fmt.Printf("   invalidated: %v\n", res.StaleAfterChange)
	fmt.Println()

	fmt.Println("Automatic tool invocations observed by the executor:")
	for _, inv := range rec.Invocations() {
		fmt.Printf("   exec %s (event %s at %s)\n", inv.String(), inv.Env["event"], inv.Env["oid"])
	}
	fmt.Println()

	fmt.Println("Project state after the change (the designers' query):")
	v := sess.Eng.DB().ReadView()
	defer v.Close()
	fmt.Print(state.Format(state.Gap(v, sess.Eng.Blueprint())))
}
