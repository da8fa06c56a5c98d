package onlytests
