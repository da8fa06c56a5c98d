package a
