package sparql

// WithPoison hands withPoison to the external tests of this directory
// (corpus_poison_test.go), which import the packages that import sparql.
var WithPoison = withPoison
