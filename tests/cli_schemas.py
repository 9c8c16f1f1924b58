"""JSON schemas of the CLI report envelope and of each verb's result."""

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["command", "inputs", "result", "elapsed_ms", "budget", "version"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "sha256"],
                "properties": {
                    "path": {"type": "string"},
                    "sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                },
            },
        },
        "result": {"type": "object"},
        "elapsed_ms": {"type": "number"},
        "nodes_explored": {"type": ["integer", "null"]},
        "budget": {
            "type": "object",
            "required": ["limit_s", "exhausted"],
            "properties": {
                "limit_s": {"type": ["number", "null"]},
                "exhausted": {"type": "boolean"},
            },
        },
        "version": {"type": "string"},
    },
}

_ORDERING = {"type": "array", "items": {"type": "integer"}}
_ORDERING_OR_NULL = {"type": ["array", "null"], "items": {"type": "integer"}}

RESULT_SCHEMAS = {
    "omega": {
        "type": "object",
        "required": ["value", "witness"],
        "properties": {"value": {"type": "integer"}, "witness": _ORDERING},
    },
    "omega-decide": {
        "type": "object",
        "required": ["decision", "witness"],
        "properties": {"decision": {"type": "boolean"}, "witness": _ORDERING_OR_NULL},
    },
    "orderings": {
        "type": "object",
        "required": ["omega", "count", "orderings"],
        "properties": {
            "omega": {"type": "integer"},
            "count": {"type": "integer"},
            "orderings": {"type": "array", "items": _ORDERING},
        },
    },
    "chi": {
        "type": "object",
        "required": ["value", "classes"],
        "properties": {
            "value": {"type": "integer"},
            "classes": {"type": "array", "items": _ORDERING},
        },
    },
    "chi-decide": {
        "type": "object",
        "required": ["decision", "classes"],
        "properties": {
            "decision": {"type": "boolean"},
            "classes": {"type": ["array", "null"], "items": _ORDERING},
        },
    },
    "forcing": {
        "type": "object",
        "required": ["holds", "vacuous", "counterexample"],
        "properties": {
            "holds": {"type": "boolean"},
            "vacuous": {"type": "boolean"},
            "counterexample": _ORDERING_OR_NULL,
        },
    },
    "search-min-omega": {
        "type": "object",
        "required": ["found"],
        "properties": {
            "found": {"type": "boolean"},
            "n": {"type": "integer"},
            "tournament": {"type": "object"},
        },
    },
    "construct": {"type": "object"},
    "gadget": {"type": "object"},
    "reduce": {
        "type": "object",
        "required": ["vertices", "reversed_arcs"],
        "properties": {
            "vertices": {"type": "integer"},
            "reversed_arcs": {"type": "integer"},
        },
    },
    "witness": {"type": "object"},
    "verify-ordering": {
        "type": "object",
        "required": ["k4_free", "has_triangle", "max_clique_found"],
        "properties": {
            "k4_free": {"type": "boolean"},
            "has_triangle": {"type": "boolean"},
            "max_clique_found": {"type": "integer"},
        },
    },
    "check-rules": {
        "type": "object",
        "required": ["omega", "excluded", "cells"],
        "properties": {
            "omega": {"type": "integer"},
            "excluded": {"type": "boolean"},
            "cells": {"type": "array"},
        },
    },
    # from-tournament leaves out the words it writes to --out once the
    # alphabet exceeds 64 symbols; solve gives a permutation or null
    "pass": {
        "type": "object",
        "properties": {
            "alphabet": {"type": "integer"},
            "forbidden": {"type": "array", "items": _ORDERING},
            "tournament_closed": {"type": "boolean"},
            "out": {"type": "string"},
            "found": {"type": "boolean"},
            "permutation": _ORDERING_OR_NULL,
        },
        "oneOf": [
            {
                "required": ["alphabet", "tournament_closed"],
                "if": {"required": ["out"], "properties": {"alphabet": {"minimum": 65}}},
                "then": {"not": {"required": ["forbidden"]}},
                "else": {"required": ["forbidden"]},
            },
            {"required": ["found", "permutation"]},
        ],
    },
}
