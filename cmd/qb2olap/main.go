// Command qb2olap is the CLI frontend to the QB2OLAP tool: it exposes
// the Enrichment, Exploration, and Querying modules of the paper as
// subcommands over either an in-process dataset or a remote SPARQL
// endpoint.
//
// Usage:
//
//	qb2olap <subcommand> [flags]
//
// Subcommands:
//
//	generate    write the synthetic Eurostat cube as Turtle
//	suggest     discover roll-up/attribute candidates for a level
//	enrich      run a scripted enrichment and commit the triples
//	explore     print the cube schema tree, members, or clusters
//	validate    run schema and instance integrity checks on a cube
//	translate   translate a QL program to SPARQL (both variants)
//	query       run a QL program and print the result cube
//	sparql      run a raw SPARQL SELECT query
//	bench       fire a mixed workload at the source and report latency
//	monitor     live terminal view of a remote sparqld's /timeseries
//	trace       analyze an exported JSONL trace archive offline
//
// Data source flags (shared): -endpoint URL for a remote SPARQL
// endpoint, -data file.ttl for a local Turtle file, or -demo N for the
// generated demonstration cube.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "generate":
		err = cmdGenerate(args)
	case "suggest":
		err = cmdSuggest(args)
	case "enrich":
		err = cmdEnrich(args)
	case "explore":
		err = cmdExplore(args)
	case "validate":
		err = cmdValidate(args)
	case "translate":
		err = cmdTranslate(args)
	case "query":
		err = cmdQuery(args)
	case "sparql":
		err = cmdSPARQL(args)
	case "bench":
		err = cmdBench(args)
	case "monitor":
		err = cmdMonitor(args)
	case "trace":
		err = cmdTrace(args)
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "qb2olap: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qb2olap: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `qb2olap — OLAP on statistical linked open data

Subcommands:
  generate   -out cube.ttl [-external ext.ttl] [-quads all.nq] [-obs N] [-seed S]
  suggest    <source> -level IRI [-threshold F] [-external]
  enrich     <source> [-script file | -demo-script] [-out-schema f] [-out-instances f] [-progress] [-report f]
  explore    <source> [-cube IRI] [-members IRI] [-cluster child:parent] [-find text] [-summary]
  validate   <source> [-cube IRI]
  translate  <source> -query file.ql [-variant direct|alternative|both]
  query      <source> -query file.ql [-variant direct|alternative] [-pivot] [-trace] [-trace-export f.jsonl]
  sparql     <source> -query file.rq
  bench      <source> [-mix ql=3,sparql=2,update=1] [-mode closed|open] [-clients N] [-rate R]
             [-requests N | -duration D] [-report f.json] [-trace-every N] [-trace-export f.jsonl]
             [-dash-addr :8090]
  monitor    -endpoint URL [-interval D] [-window D] [-once]
  trace      -in traces.jsonl [-top N]

<source> is one of:
  -endpoint URL   remote SPARQL endpoint (e.g. http://localhost:8080)
  -data file.ttl  local Turtle file loaded in-process (repeatable)
  -quads file.nq  local N-Quads file loaded in-process, keeping named graphs
  -demo N         generated demonstration cube with N observations
`)
}
