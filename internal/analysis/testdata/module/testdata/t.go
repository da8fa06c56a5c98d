package testdata
