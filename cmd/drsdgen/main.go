// Command drsdgen implements the automatable half of the paper's §2.3
// MPI→Dyn-MPI translation: it statically analyses a Go source file written
// against the dynmpi API, derives the deferred regular section descriptors
// from the array references inside the partitioned loops, and prints the
// AddAccess declarations the program needs.
//
//	drsdgen file.go            print the derived declarations
//	drsdgen -check file.go     exit non-zero if the file's declarations
//	                           do not cover the derived accesses
//
// References the analysis cannot express as regular sections (strided by
// a variable, symbolic offsets) are reported with positions — the paper's
// "sophisticated analysis" boundary.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/translate"
)

func main() {
	check := flag.Bool("check", false, "verify existing AddAccess declarations cover the derived accesses")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: drsdgen [-check] file.go ...")
		os.Exit(2)
	}
	exit := 0
	for _, file := range flag.Args() {
		res, err := translate.AnalyzeFile(file, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "drsdgen: %v\n", err)
			exit = 1
			continue
		}
		fmt.Printf("%s:\n", file)
		if *check {
			missing := res.Missing()
			if len(missing) == 0 {
				fmt.Printf("  declarations cover all %d derived accesses\n", len(res.Accesses))
			} else {
				for _, a := range missing {
					fmt.Printf("  MISSING %s\n", a)
				}
				exit = 1
			}
		} else {
			if len(res.Accesses) == 0 {
				fmt.Println("  no partitioned-loop array references found")
			}
			for _, a := range res.Accesses {
				fmt.Printf("  %s\n", a)
			}
		}
		for _, is := range res.Issues {
			fmt.Printf("  UNRESOLVED %s: %s\n", is.Pos, is.Reason)
		}
	}
	os.Exit(exit)
}
