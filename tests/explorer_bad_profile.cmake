# Feed bt_explorer --load-profile a profile CSV holding a non-finite
# cell, or a duplicated (stage, PU) row standing in for a missing one,
# and require the documented usage exit code (1), not an abort or a
# silently accepted table.
#
#   cmake -DEXPLORER=<bt_explorer> -DWORK_DIR=<dir> -P explorer_bad_profile.cmake
function(expect_rejected csv what)
    execute_process(
        COMMAND "${EXPLORER}" --device pixel --app octree
                --load-profile "${csv}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR
            "bt_explorer --load-profile with ${what} exited '${rc}', "
            "expected 1")
    endif()
endfunction()

foreach(bad nan inf -inf)
    set(csv "${WORK_DIR}/bad_profile_${bad}.csv")
    file(WRITE "${csv}" "stage,pu,mean_s,stddev_s\nmorton,big,${bad},0\n")
    expect_rejected("${csv}" "a '${bad}' cell")
endforeach()

# A complete profile of the same (device, app), saved by bt_explorer
# itself, with its last row replaced by a copy of its first: the row
# count still matches stages x PUs.
set(good "${WORK_DIR}/good_profile.csv")
execute_process(
    COMMAND "${EXPLORER}" --device pixel --app octree
            --save-profile "${good}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "bt_explorer --save-profile exited '${rc}'")
endif()
file(STRINGS "${good}" rows)
list(GET rows 1 first_row)
list(POP_BACK rows)
list(APPEND rows "${first_row}")
list(JOIN rows "\n" body)
set(csv "${WORK_DIR}/bad_profile_duplicate.csv")
file(WRITE "${csv}" "${body}\n")
expect_rejected("${csv}" "a duplicated row")
