package hidden
