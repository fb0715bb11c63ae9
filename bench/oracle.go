package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/eurostat"
	"repro/internal/olap"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/vocab"
)

// The oracles are deliberately naive: a fold over the generator's raw
// observation rows and its embedded geography tables, with no SPARQL
// and no QB4OLAP triples involved. Both QL translations must equal the
// fold (and therefore each other).

// cells is an expected result cube: sorted member IRIs of a cell's
// coordinates, joined, to the summed measure.
type cells map[string]int64

func cellKey(coords ...rdf.Term) string {
	ks := make([]string, len(coords))
	for i, c := range coords {
		ks[i] = c.Value
	}
	sort.Strings(ks)
	return strings.Join(ks, "|")
}

// template is one QL query family: which observations it keeps and the
// coordinates it groups them by.
type template struct {
	keep  func(eurostat.Observation) bool
	coord func(eurostat.Observation) []rdf.Term
	// having keeps a cell by its aggregated value (the measure DICE).
	having func(int64) bool
}

func continentOf(code string) rdf.Term {
	c, _ := eurostat.CountryByCode(code)
	return eurostat.ContinentIRI(c.Continent)
}

func continentNameOf(code string) string {
	c, _ := eurostat.CountryByCode(code)
	return eurostat.ContinentName(c.Continent)
}

func countryNameOf(code string) string {
	c, _ := eurostat.CountryByCode(code)
	return c.Name
}

func ageClassOf(code string) string {
	for _, a := range eurostat.AgeGroups {
		if a.Code == code {
			return a.Class
		}
	}
	return ""
}

func continentYear(o eurostat.Observation) []rdf.Term {
	return []rdf.Term{continentOf(o.Citizen), eurostat.YearIRI(o.Year)}
}

// citizenAll is the single member of the synthetic top level the demo
// enrichment caps the citizenship dimension with.
var citizenAll = rdf.NewIRI(vocab.Schema + "member/citizenAll")

// templates returns the oracle of each demo.PredefinedQueries entry
// for the given DICE constants.
func templates(continent, destination string, threshold int64) map[string]template {
	return map[string]template{
		"mary": {
			keep: func(o eurostat.Observation) bool {
				return continentNameOf(o.Citizen) == continent && countryNameOf(o.Geo) == destination
			},
			coord: func(o eurostat.Observation) []rdf.Term {
				return []rdf.Term{continentOf(o.Citizen), eurostat.GeoIRI(o.Geo), eurostat.YearIRI(o.Year)}
			},
		},
		"continent-year": {coord: continentYear},
		"quarterly-trend": {
			coord: func(o eurostat.Observation) []rdf.Term {
				return []rdf.Term{eurostat.QuarterIRI(o.Year, (o.Month-1)/3+1)}
			},
		},
		"minors-by-destination": {
			keep: func(o eurostat.Observation) bool { return ageClassOf(o.Age) == "MINOR" },
			coord: func(o eurostat.Observation) []rdf.Term {
				return []rdf.Term{eurostat.GeoIRI(o.Geo), eurostat.AgeClassIRI("MINOR")}
			},
		},
		"busy-cells": {
			coord:  continentYear,
			having: func(v int64) bool { return v > threshold },
		},
		"grand-total": {
			coord: func(eurostat.Observation) []rdf.Term { return []rdf.Term{citizenAll} },
		},
	}
}

// fold evaluates a template over observation rows.
func (t template) fold(obs ...[]eurostat.Observation) cells {
	out := make(cells)
	for _, part := range obs {
		for _, o := range part {
			if t.keep != nil && !t.keep(o) {
				continue
			}
			out[cellKey(t.coord(o)...)] += o.Value
		}
	}
	if t.having != nil {
		for k, v := range out {
			if !t.having(v) {
				delete(out, k)
			}
		}
	}
	return out
}

// checkCube compares a result cube with the oracle's cells.
func checkCube(result any, want cells) error {
	cube, ok := result.(*olap.Cube)
	if !ok || cube == nil {
		return fmt.Errorf("oracle: result is %T, not a cube", result)
	}
	if len(cube.Cells) != len(want) {
		return fmt.Errorf("oracle: %d cells, want %d", len(cube.Cells), len(want))
	}
	for _, c := range cube.Cells {
		if len(c.Values) != 1 {
			return fmt.Errorf("oracle: cell has %d measures, want 1", len(c.Values))
		}
		got, err := strconv.ParseInt(c.Values[0].Value, 10, 64)
		if err != nil {
			return fmt.Errorf("oracle: measure %q is not an integer", c.Values[0].Value)
		}
		key := cellKey(c.Coords...)
		if w, ok := want[key]; !ok || w != got {
			return fmt.Errorf("oracle: cell %s = %d, want %d (present %v)", key, got, w, ok)
		}
	}
	return nil
}

// slice is the oracle of one extract op: how many observations fall in
// the period and the sum of their values.
type slice struct {
	rows int
	sum  int64
}

// foldSlice counts the observations of the given quarters of one year.
func foldSlice(obs []eurostat.Observation, year int, quarters []int) slice {
	in := make(map[int]bool, len(quarters))
	for _, q := range quarters {
		in[q] = true
	}
	var s slice
	for _, o := range obs {
		if o.Year == year && in[(o.Month-1)/3+1] {
			s.rows++
			s.sum += o.Value
		}
	}
	return s
}

// checkSlice compares a raw SELECT result with the slice oracle: the
// row count and the checksum of the ?v column.
func checkSlice(result any, want slice) error {
	res, ok := result.(*sparql.Results)
	if !ok || res == nil {
		return fmt.Errorf("oracle: result is %T, not a result table", result)
	}
	if len(res.Vars) != 5 {
		return fmt.Errorf("oracle: %d columns, want 5", len(res.Vars))
	}
	if res.Len() != want.rows {
		return fmt.Errorf("oracle: %d rows, want %d", res.Len(), want.rows)
	}
	var sum int64
	for i := range res.Rows {
		v, err := strconv.ParseInt(res.Binding(i, "v").Value, 10, 64)
		if err != nil {
			return fmt.Errorf("oracle: row %d: obsValue %q is not an integer", i, res.Binding(i, "v").Value)
		}
		sum += v
	}
	if sum != want.sum {
		return fmt.Errorf("oracle: obsValue checksum %d, want %d", sum, want.sum)
	}
	return nil
}
