package resolver

// LiveBackoff draws a LiveResolver's delay before a retry whose previous
// delay was prev (zero before the first retry).
var LiveBackoff = (*LiveResolver).backoff
