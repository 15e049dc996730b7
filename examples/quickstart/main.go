// Quickstart: generate a small synthetic fleet, run three headline
// experiments (one per study area), and print the regenerated tables.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"meshlab"
)

func main() {
	// Everything is reproducible from one seed.
	fleet, err := meshlab.GenerateFleet(meshlab.QuickOptions(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d network datasets, %d probe sets, %d client logs\n\n",
		len(fleet.Networks), fleet.NumProbeSets(), len(fleet.Clients))

	results, _, err := meshlab.RunFleet(fleet, "fig4.2", "fig5.1", "fig6.1", "fig7.4")
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		fmt.Print(res.Format())
		fmt.Println()
	}

	fmt.Println("all experiment IDs:", meshlab.ExperimentIDs())
}
