package b
